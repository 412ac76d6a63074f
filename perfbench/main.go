// Command perfbench drives leap.Memory the way an application does and
// reports end-to-end and per-layer metrics.
//
// Two clients, each on its own goroutine, run a closed loop through
// Memory.Client handles: a client issues its next access only after the
// previous one returned. Every read is checked against an oracle of the
// last bytes written to its record. With -trace 0 a run reports the
// end-to-end metrics with no wrappers installed; with -trace 1 it makes an
// untraced run and then a traced run of the same workload, whose delegating
// transport and prefetcher wrappers record spans, and reports the
// per-layer metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload app_scan --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 15
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strings"
	"time"

	"leap/internal/metrics"
	"leap/internal/prefetch"
	"leap/internal/remote"
	rt "leap/internal/runtime"
)

const (
	// setupRuns is how many times a run builds, opens and populates the
	// runtime; setup_s is the median and the last one is measured.
	setupRuns = 5
	// warmupWindows run the loop unrecorded before the measured phase, so
	// the predictors, caches and compressed tier settle: kv_rw_tcp's tail
	// latency keeps falling for about three seconds after populate.
	warmupWindows = int(3 * time.Second / window)
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload  = flag.String("workload", "", "workload to run: resident_zipf, app_scan or kv_rw_tcp")
		seed      = flag.Uint64("seed", 1, "seed the access streams and record images are generated from")
		seconds   = flag.Int("seconds", 15, "length of the measured phase in seconds")
		traceFlag = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		commit    = flag.String("commit", "unknown", "commit or source digest the binary was built from")
		steady    = flag.Int("steady", 0, "steadiness report: run every workload of BENCHMARK.json (or only -workload) this many times")
	)
	flag.Parse()
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds %d, need >= 1", *seconds))
	}
	if *steady > 0 {
		return fail(steadyReport(*steady, *seconds, *commit, *workload))
	}
	s, err := specByName(*workload)
	if err != nil {
		return fail(err)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fail(fmt.Errorf("-trace %d, need 0 or 1", *traceFlag))
	}
	if procs := goruntime.GOMAXPROCS(0); s.clients() > procs {
		return fail(fmt.Errorf("%s runs %d client goroutines but GOMAXPROCS is %d: a closed loop past the core count is not a measurement",
			s.name, s.clients(), procs))
	}
	mach := machineRecord(*commit, *seed)
	fmt.Printf("machine: %s\n", mach)
	fmt.Printf("workload: %s (see BENCHMARK.json for why it is in the benchmark)\n", s.name)

	b := &bench{spec: s, in: generate(s, *seed), im: newImager(*seed), windows: int(time.Duration(*seconds) * time.Second / window)}
	var out []metric
	if *traceFlag == 0 {
		out, err = b.endToEnd()
	} else {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.tsv", s.name, *seed))
		out, err = b.perLayer(path, mach)
	}
	if err != nil {
		return fail(err)
	}
	return report(b, out)
}

func fail(err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// bench is one run of one workload.
type bench struct {
	spec *spec
	in   *inputs
	im   *imager
	// windows is the length of the measured phase in windows.
	windows int
	// attempted and failed count every checked access of every phase.
	attempted, failed int64
}

// metric is one reported number. samples is the number of observations a
// percentile was taken from (0 for other metrics).
type metric struct {
	name    string
	unit    string
	value   float64
	samples uint64
}

// measure sets the workload up (setupRuns times when timeSetup is set),
// warms it up and runs the measured phase.
func (b *bench) measure(w wrappers, t *tracer, timeSetup bool) (p *phase, setupS float64, err error) {
	runs := 1
	if timeSetup {
		runs = setupRuns
	}
	setups := make([]float64, runs)
	var e *env
	for i := range setups {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, 0, err
			}
		}
		goruntime.GC()
		t0 := time.Now()
		if e, err = setup(b.spec, b.im, w); err != nil {
			return nil, 0, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	l := newLoop(e, b.in, b.im, t)
	wp := l.run(warmupWindows, false)
	p = l.run(b.windows, true)
	b.attempted += wp.accesses + p.accesses
	b.failed += wp.errors + p.errors
	if err := e.close(); err != nil {
		return nil, 0, err
	}
	slices.Sort(setups)
	return p, setups[len(setups)/2], nil
}

// endToEnd reports the metrics a user of leap.Memory sees, untraced.
func (b *bench) endToEnd() ([]metric, error) {
	p, setupS, err := b.measure(wrappers{}, nil, true)
	if err != nil {
		return nil, err
	}
	lat := p.stats.Latency
	st := p.stats
	info("for information: access p99.9 %.2f us over the whole run (n=%d); fault p99.9 %.2f us (n=%d); windows %d x %v",
		pctUs(&p.latency, 99.9), p.latency.Count(), us(time.Duration(lat.P999)), lat.Count, len(p.windows), window)
	info("for information: %.4f faults and %.4f ztier hits per access", ratio(st.Faults, st.Accesses), ratio(st.Ztier.Hits, st.Accesses))
	return []metric{
		{"setup_s", "s", setupS, setupRuns},
		{"throughput_ops_s", "1/s", p.throughput(), 0},
		{"access_p50_us", "us", p.accessUs(50), p.latency.Count()},
		{"access_p99_us", "us", p.accessUs(99), p.latency.Count()},
		{"fault_p50_us", "us", us(time.Duration(lat.P50)), lat.Count},
		{"fault_p99_us", "us", us(time.Duration(lat.P99)), lat.Count},
		{"heap_mb", "MiB", float64(p.heapBytes) / (1 << 20), 0},
	}, nil
}

// info prints a line of the human-readable report.
func info(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) }

// perLayer makes an untraced and a traced run and reports the per-layer
// metrics of the traced one.
func (b *bench) perLayer(spansPath, mach string) ([]metric, error) {
	p0, _, err := b.measure(wrappers{}, nil, false)
	if err != nil {
		return nil, err
	}
	t := newTracer(b.spec.clients())
	w := wrappers{
		transport:  func(tr remote.Transport) remote.Transport { return newTracedTransport(tr, t) },
		prefetcher: func(pf prefetch.Prefetcher) prefetch.Prefetcher { return &tracedPrefetcher{pf, t} },
	}
	p, _, err := b.measure(w, t, false)
	if err != nil {
		return nil, err
	}
	if err := t.writeSpans(spansPath, fmt.Sprintf("perfbench %s %s", b.spec.name, mach)); err != nil {
		return nil, err
	}

	var self, local, pf, call metrics.Histogram
	var pfMisses, pfWindow, calls, callPages, callBytes, callErrs int64
	for _, ct := range t.clients {
		self.Merge(&ct.self)
		local.Merge(&ct.local)
		pf.Merge(&ct.prefetch)
		pfMisses += ct.pfMisses
		pfWindow += ct.pfWindow
	}
	for _, tr := range t.transports {
		call.Merge(&tr.call)
		calls += tr.calls
		callPages += tr.pages
		callBytes += tr.wireBytes
		callErrs += tr.err
	}
	st := p.stats
	h0, h1 := p.host0, p.host1
	acc := float64(p.accesses)
	compressUs, decompressUs, codecRatio := timeZtier(b.spec, b.im)
	encodeUs, decodeUs := timeWire(t.frames)
	// Over in-proc transports the call span is the agent's handling; over
	// TCP the agent runs on its own goroutines, out of the wrappers' sight.
	handle, handleN := pctUs(&call, 50), call.Count()
	if b.spec.tcp {
		handle, handleN = 0, 0
	}

	info("traced: %d accesses, 1 in %d sampled for self time, %d spans kept in %s", p.accesses, sampleEvery, keptSpans(t), spansPath)
	info("modeled vs measured (us): fault p50 %.2f / p99 %.2f (n=%d, virtual time)  |  access p50 %.2f / p99 %.2f (n=%d, wall clock)  |  transport call p50 %.2f / p99 %.2f (n=%d, wall clock)",
		us(time.Duration(st.Latency.P50)), us(time.Duration(st.Latency.P99)), st.Latency.Count,
		p.accessUs(50), p.accessUs(99), p.latency.Count(),
		pctUs(&call, 50), pctUs(&call, 99), call.Count())
	info("modeled vs measured (us): ztier decompress charged %.2f (DefaultDecompressLatency)  |  ztier.Decompress measured %.2f per page (codec ratio %.2fx on this workload's pages)",
		us(time.Duration(rt.DefaultDecompressLatency)), decompressUs, codecRatio)

	return []metric{
		{"runtime.self_us_p50", "us", pctUs(&self, 50), self.Count()},
		{"runtime.self_us_p99", "us", pctUs(&self, 99), self.Count()},
		{"runtime.local_access_us_p50", "us", pctUs(&local, 50), local.Count()},
		{"runtime.local_access_us_p99", "us", pctUs(&local, 99), local.Count()},
		// The allocation counters come from the untraced run: the
		// wrappers allocate too.
		{"runtime.alloc_bytes_per_access", "B", float64(p0.mem1.TotalAlloc-p0.mem0.TotalAlloc) / float64(p0.accesses), 0},
		{"runtime.allocs_per_access", "count", float64(p0.mem1.Mallocs-p0.mem0.Mallocs) / float64(p0.accesses), 0},
		{"runtime.gc_cycles", "count", float64(p0.mem1.NumGC - p0.mem0.NumGC), 0},
		{"paging.faults_per_access", "ratio", ratio(st.Faults, st.Accesses), 0},
		{"pagecache.hit_ratio", "ratio", ratio(st.CacheHits+st.InflightHits, st.Faults), 0},
		{"pagecache.inflight_hits_per_fault", "ratio", ratio(st.InflightHits, st.Faults), 0},
		{"paging.demand_waits", "count", float64(st.DemandWaits), 0},
		{"paging.writeback_pages_per_access", "ratio", ratio(st.WritebackPages, st.Accesses), 0},
		{"prefetch.on_access_ns_p50", "ns", float64(pf.Percentile(50)), pf.Count()},
		{"prefetch.on_access_ns_p99", "ns", float64(pf.Percentile(99)), pf.Count()},
		{"prefetch.window_pages", "pages", ratio(pfWindow, pfMisses), 0},
		{"prefetch.issued_per_fault", "ratio", ratio(st.PrefetchIssued, st.Faults), 0},
		{"prefetch.accuracy", "ratio", st.Accuracy, 0},
		{"prefetch.coverage", "ratio", st.Coverage, 0},
		{"ztier.hits_per_access", "ratio", ratio(st.Ztier.Hits, st.Accesses), 0},
		{"ztier.ratio", "ratio", st.Ztier.Ratio, 0},
		{"ztier.overflow_evictions", "count", float64(st.Ztier.OverflowEvictions - p.ztierOverflow0), 0},
		{"ztier.compress_us_per_page", "us", compressUs, 0},
		{"ztier.decompress_us_per_page", "us", decompressUs, 0},
		{"remote.host.reads_per_access", "ratio", float64(h1.Reads-h0.Reads) / acc, 0},
		{"remote.host.writes_per_access", "ratio", float64(h1.Writes-h0.Writes) / acc, 0},
		{"remote.host.pages_per_batch", "pages", ratio(h1.BatchedPages-h0.BatchedPages, h1.BatchCalls-h0.BatchCalls), 0},
		{"remote.host.coalesced_reads", "count", float64(h1.CoalescedReads - h0.CoalescedReads), 0},
		{"remote.host.dirty_reads", "count", float64(h1.DirtyReads - h0.DirtyReads), 0},
		{"remote.host.retries", "count", float64(h1.Retries + h1.Failovers + h1.DeadlineFailed - h0.Retries - h0.Failovers - h0.DeadlineFailed), 0},
		{"remote.transport.call_us_p50", "us", pctUs(&call, 50), call.Count()},
		{"remote.transport.call_us_p99", "us", pctUs(&call, 99), call.Count()},
		{"remote.transport.calls_per_access", "ratio", float64(calls) / acc, 0},
		{"remote.transport.pages_per_call", "pages", ratio(callPages, calls), 0},
		{"remote.transport.wire_bytes_per_page", "B", ratio(callBytes, callPages), 0},
		{"remote.transport.errors", "count", float64(callErrs), 0},
		{"remote.wire.encode_us_per_frame", "us", encodeUs, uint64(2 * len(t.frames))},
		{"remote.wire.decode_us_per_frame", "us", decodeUs, uint64(2 * len(t.frames))},
		{"remote.agent.ops_per_access", "ratio", float64(p.agentOps1-p.agentOps0) / acc, 0},
		{"remote.agent.handle_us_p50", "us", handle, handleN},
		{"trace.overhead_frac", "ratio", 1 - p.throughput()/p0.throughput(), 0},
	}, nil
}

func pctUs(h *metrics.Histogram, q float64) float64 { return us(time.Duration(h.Percentile(q))) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func keptSpans(t *tracer) int {
	n := 0
	for _, ct := range t.clients {
		n += len(ct.spans)
	}
	return n
}

// report prints every metric by name with its unit and sample count, then
// the result line.
func report(b *bench, ms []metric) int {
	errRate := ratio(b.failed, b.attempted)
	info("error_rate %.6g (%d failed of %d attempted accesses, every read checked)", errRate, b.failed, b.attempted)
	for _, m := range ms {
		n := ""
		if m.samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.samples)
		}
		info("%-36s %14.6g %-6s%s", m.name, m.value, m.unit, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, map[string]value{}}
	for _, m := range ms {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

// machineRecord names what a result was measured on.
func machineRecord(commit string, seed any) string {
	rec, _ := json.Marshal(map[string]any{
		"num_cpu":    goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"go":         goruntime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"seed":       seed,
	})
	return string(rec)
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
