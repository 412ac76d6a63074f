package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"leap/internal/prefetch"
	"leap/internal/remote"
	"leap/internal/workload"
)

// oracleSpec is a small read-only workload whose accesses read whole pages,
// so a corrupted byte anywhere in a demand-read page is read back.
func oracleSpec() *spec {
	return &spec{
		name:       "oracle",
		pages:      1024,
		recSize:    pageSize,
		streams:    []func(uint64, int64) workload.Generator{appStream(workload.MemcachedProfile), appStream(workload.VoltDBProfile)},
		cachePages: 256,
	}
}

// flipTransport flips one byte of the first demand-read response it sees
// once armed.
type flipTransport struct {
	remote.Transport
	armed   *atomic.Bool
	flipped *atomic.Bool
}

func (f *flipTransport) Call(req *remote.Request) (*remote.Response, error) {
	resp, err := f.Transport.Call(req)
	if err != nil || req.Op != remote.OpRead || len(resp.Payload) == 0 || !f.armed.Load() {
		return resp, err
	}
	if !f.flipped.CompareAndSwap(false, true) {
		return resp, err
	}
	bad := *resp
	bad.Payload = bytes.Clone(resp.Payload)
	bad.Payload[len(bad.Payload)/2] ^= 0x40
	return &bad, nil
}

func runOracle(t *testing.T, w wrappers, armed *atomic.Bool) *phase {
	t.Helper()
	s := oracleSpec()
	im := newImager(7)
	e, err := setup(s, im, w)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	}()
	armed.Store(true)
	return newLoop(e, generate(s, 7), im, nil).run(1, true)
}

func TestOracleCleanRun(t *testing.T) {
	var armed atomic.Bool
	p := runOracle(t, wrappers{}, &armed)
	if p.accesses == 0 || p.errors != 0 {
		t.Fatalf("clean run: %d errors in %d accesses, want 0 in > 0", p.errors, p.accesses)
	}
	if p.stats.Misses == 0 {
		t.Fatalf("clean run took no misses; the workload must read pages back from the agents")
	}
}

func TestOracleDetectsFlippedByte(t *testing.T) {
	var armed, flipped atomic.Bool
	w := wrappers{transport: func(tr remote.Transport) remote.Transport {
		return &flipTransport{Transport: tr, armed: &armed, flipped: &flipped}
	}}
	p := runOracle(t, w, &armed)
	if !flipped.Load() {
		t.Fatal("no demand read reached the transport")
	}
	if p.errors == 0 {
		t.Fatalf("a read response with one flipped byte went undetected in %d accesses", p.accesses)
	}
}

// TestTracedRunAttributesChildren runs the loop with both wrappers
// installed and checks that sampled accesses found their child spans.
func TestTracedRunAttributesChildren(t *testing.T) {
	s := oracleSpec()
	im := newImager(7)
	tr := newTracer(s.clients())
	e, err := setup(s, im, wrappers{
		transport:  func(t remote.Transport) remote.Transport { return newTracedTransport(t, tr) },
		prefetcher: func(p prefetch.Prefetcher) prefetch.Prefetcher { return &tracedPrefetcher{p, tr} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	}()
	p := newLoop(e, generate(s, 7), im, tr).run(1, true)
	if p.errors != 0 {
		t.Fatalf("%d errors in %d traced accesses", p.errors, p.accesses)
	}
	var roots, children int
	for _, ct := range tr.clients {
		for _, sp := range ct.spans {
			if sp.parent == 0 {
				roots++
			} else {
				children++
			}
		}
	}
	if roots == 0 || children == 0 {
		t.Fatalf("kept %d root and %d child spans, want both > 0", roots, children)
	}
	var calls int64
	for _, w := range tr.transports {
		calls += w.calls
	}
	if calls == 0 || len(tr.frames) == 0 {
		t.Fatalf("transport wrapper saw %d calls and kept %d frames, want both > 0", calls, len(tr.frames))
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run reports exactly the
// metrics BENCHMARK.json lists, with its units: the end-to-end ones with
// -trace 0 and the per-layer ones with -trace 1.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bf struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	s := oracleSpec()
	b := &bench{spec: s, in: generate(s, 7), im: newImager(7), windows: 2}
	e2e, err := b.endToEnd()
	if err != nil {
		t.Fatal(err)
	}
	layers, err := b.perLayer(filepath.Join(t.TempDir(), "spans.tsv"), "test")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		want []entry
		got  []metric
	}{{bf.EndToEnd, e2e}, {bf.PerLayer, layers}} {
		var got []entry
		for _, m := range c.got {
			got = append(got, entry{m.name, m.unit})
		}
		byName := func(a, b entry) int { return strings.Compare(a.Name, b.Name) }
		slices.SortFunc(got, byName)
		slices.SortFunc(c.want, byName)
		if !slices.Equal(got, c.want) {
			t.Errorf("run reports %v,\nBENCHMARK.json lists %v", got, c.want)
		}
	}
	if b.failed != 0 {
		t.Errorf("%d of %d accesses failed", b.failed, b.attempted)
	}
}

// TestQuartilesMatchPython pins quartiles to the exclusive method of
// Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
