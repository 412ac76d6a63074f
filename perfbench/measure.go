package main

import (
	"bytes"
	"errors"
	goruntime "runtime"
	"slices"
	"sync"
	"time"

	"leap"
	"leap/internal/metrics"
	"leap/internal/remote"
	"leap/internal/sim"
)

// window is the length of one measurement window. A phase is a whole number
// of windows; throughput and access percentiles are the medians over its
// windows, so a burst of noise from outside the benchmark moves a few
// windows rather than the result.
const window = 250 * time.Millisecond

var errMismatch = errors.New("read returned bytes other than the last write")

// loop is the closed loop over one env: one goroutine per client, each
// issuing its next access only after the previous one returned. The
// oracle state (versions) persists across phases.
type loop struct {
	e  *env
	in *inputs
	im *imager
	t  *tracer // nil: untraced
	// epoch is the origin of access timestamps (the tracer's when traced).
	epoch time.Time

	// next is each client's position in its access ring.
	next []uint64
	// versions holds, per client, the version of the last write to each
	// record (index page*recsPerPage + rec): the oracle's shadow of the
	// bytes every record must read back.
	versions [][]uint32
}

func newLoop(e *env, in *inputs, im *imager, t *tracer) *loop {
	l := &loop{e: e, in: in, im: im, t: t, epoch: time.Now(), next: make([]uint64, e.spec.clients())}
	if t != nil {
		l.epoch = t.epoch
	}
	for range l.next {
		l.versions = append(l.versions, make([]uint32, e.spec.span()*int64(e.spec.recsPerPage())))
	}
	return l
}

// windowStats is what one window measured.
type windowStats struct {
	accesses int64
	// latency is the wall-clock time of each access call that ended in
	// the window.
	latency metrics.Histogram
}

// phase is what one run of the loop measured.
type phase struct {
	accesses, errors int64
	windows          []windowStats
	// latency merges every window.
	latency metrics.Histogram

	stats                leap.MemoryStats
	host0, host1         remote.HostStats
	ztierOverflow0       int64
	agentOps0, agentOps1 int64
	mem0, mem1           goruntime.MemStats
	// heapBytes is the live heap after a GC at the end of the phase, less
	// the agents' slabs: the remote memory lives in this process only
	// because the agents do.
	heapBytes uint64
}

// throughput is the median over windows of the accesses completed per
// second.
func (p *phase) throughput() float64 {
	return medianOf(p.windows, func(w *windowStats) float64 { return float64(w.accesses) / window.Seconds() })
}

// accessUs is the median over windows of the q-th percentile access time,
// in microseconds.
func (p *phase) accessUs(q float64) float64 {
	return medianOf(p.windows, func(w *windowStats) float64 { return pctUs(&w.latency, q) })
}

func medianOf(ws []windowStats, f func(*windowStats) float64) float64 {
	xs := make([]float64, len(ws))
	for i := range ws {
		xs[i] = f(&ws[i])
	}
	slices.Sort(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

// run drives every client for the given number of windows. With record
// set, the runtime's recording is on and the counters and heap are read
// around the phase.
func (l *loop) run(windows int, record bool) *phase {
	e := l.e
	p := &phase{windows: make([]windowStats, windows)}
	e.mem.SetRecording(record)
	if record {
		p.host0 = e.host.Stats()
		p.agentOps0 = e.agentOps()
		p.ztierOverflow0 = e.mem.Stats().Ztier.OverflowEvictions
		goruntime.GC()
		goruntime.ReadMemStats(&p.mem0)
	}
	var (
		ready, done sync.WaitGroup
		start       = make(chan time.Duration)
		results     = make([]*phase, e.spec.clients())
	)
	for c := range e.clients {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			if l.t != nil {
				l.t.register(c)
			}
			ready.Done()
			results[c] = l.client(c, <-start, windows)
		}()
	}
	ready.Wait()
	if l.t != nil && record {
		l.t.on.Store(true)
	}
	t0 := time.Since(l.epoch)
	for range e.clients {
		start <- t0
	}
	done.Wait()
	if l.t != nil {
		l.t.on.Store(false)
	}
	for _, r := range results {
		p.accesses += r.accesses
		p.errors += r.errors
		for i := range p.windows {
			p.windows[i].accesses += r.windows[i].accesses
			p.windows[i].latency.Merge(&r.windows[i].latency)
			p.latency.Merge(&r.windows[i].latency)
		}
	}
	if record {
		goruntime.ReadMemStats(&p.mem1)
		p.stats = e.mem.Stats()
		p.host1 = e.host.Stats()
		p.agentOps1 = e.agentOps()
		goruntime.GC()
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		p.heapBytes = ms.HeapAlloc - e.slabBytes()
	}
	return p
}

// client runs client c's closed loop from t0 (on the loop's epoch) for the
// given number of windows and checks every read against the oracle.
func (l *loop) client(c int, t0 time.Duration, windows int) *phase {
	s := l.e.spec
	cl := l.e.clients[c]
	ops := l.in.ops[c]
	vers := l.versions[c]
	recs := int64(s.recsPerPage())
	base := int64(c) * s.span()
	buf := make([]byte, s.recSize)
	want := make([]byte, s.recSize)
	r := &phase{windows: make([]windowStats, windows)}
	traced := l.t != nil && l.t.on.Load()
	seq := l.next[c]
	for w := 0; w < windows; {
		a := ops[seq%uint64(len(ops))]
		pg := base + int64(a.page)
		slot := int64(a.page)*recs + int64(a.rec)
		off := pg*pageSize + int64(a.rec)*int64(s.recSize)
		if a.write {
			vers[slot]++
			l.im.fill(buf, pg, int(a.rec), vers[slot])
		}
		if traced {
			l.t.begin(c, seq)
		}
		var err error
		start := time.Since(l.epoch)
		if a.write {
			_, err = cl.WriteAt(buf, off)
		} else {
			_, err = cl.ReadAt(buf, off)
		}
		end := time.Since(l.epoch)
		if traced {
			l.t.end(c, int64(start), int64(end))
		}
		// An access belongs to the window it ended in; the one that ends
		// past the last window closes the phase and counts in the last.
		w = int((end - t0) / window)
		ws := &r.windows[min(w, windows-1)]
		ws.latency.Observe(sim.Duration(end - start))
		ws.accesses++
		if err == nil && !a.write {
			l.im.fill(want, pg, int(a.rec), vers[slot])
			if !bytes.Equal(buf, want) {
				err = errMismatch
			}
		}
		if err != nil {
			r.errors++
		}
		r.accesses++
		seq++
	}
	l.next[c] = seq
	return r
}
