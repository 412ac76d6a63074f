package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"leap/internal/metrics"
	"leap/internal/prefetch"
	"leap/internal/remote"
	"leap/internal/sim"
)

// Span kinds, one per layer boundary the harness can see from outside.
const (
	spanAccess   = iota // one client ReadAt/WriteAt: the root of each access
	spanPrefetch        // Prefetcher.OnAccess
	spanCall            // Transport.Call
)

var spanNames = [...]string{"access", "prefetch.on_access", "transport.call"}

// span is one recorded interval; times are nanoseconds since the tracer's
// epoch. id is the per-access id and parent the id of the access a child
// span ran under (0 for a root span).
type span struct {
	start, end int64
	id, parent uint64
	kind       uint8
}

const (
	// sampleEvery selects the accesses whose child spans are attributed:
	// one in sampleEvery per client. Attributing a transport call needs the
	// calling goroutine's id, which costs microseconds, so it is looked up
	// only while a sampled access is in flight.
	sampleEvery = 64
	// spanCap bounds the spans kept per client for the span file.
	spanCap = 1 << 16
	// frameSampleCap bounds the frames kept for the wire-codec timing.
	frameSampleCap = 256
)

// clientTrace is the trace state of one client. Only the client's own
// goroutine touches it: the root span runs there, and the prefetcher and
// transport are called on the faulting goroutine.
type clientTrace struct {
	gid uint64
	// cur is the access in flight and sampled whether its children are
	// attributed; childNs and children accumulate the durations and count
	// of its child spans (they never overlap: the demand fetch, OnAccess
	// and the prefetch flush run one after another). taxNs is time the
	// tracer itself spent inside the access.
	cur      uint64
	sampled  bool
	childNs  int64
	taxNs    int64
	children int

	// self and local cover sampled accesses; prefetch covers every call.
	self, local, prefetch metrics.Histogram
	pfMisses, pfWindow    int64

	spans []span
}

// frame is one request/response pair the transport wrapper saw.
type frame struct {
	req  *remote.Request
	resp *remote.Response
}

// tracer records spans at the layer boundaries of a traced run.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	clients []*clientTrace
	// sampling counts sampled accesses in flight.
	sampling atomic.Int32

	mu sync.Mutex
	// transports are the installed wrappers; frames the sampled frames.
	transports []*tracedTransport
	frames     []frame
}

func newTracer(clients int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := 0; i < clients; i++ {
		t.clients = append(t.clients, &clientTrace{spans: make([]span, 0, spanCap)})
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// register binds the calling goroutine to client c. Clients register
// before tracing is switched on.
func (t *tracer) register(c int) { t.clients[c].gid = goid() }

// goid parses the current goroutine's id from its stack header
// ("goroutine 17 [running]:"). It walks the whole stack, so it costs
// microseconds.
func goid() uint64 {
	var buf [64]byte
	b := buf[:goruntime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// begin marks access seq of client c in flight.
func (t *tracer) begin(c int, seq uint64) {
	ct := t.clients[c]
	ct.cur = uint64(c+1)<<48 | seq + 1
	ct.sampled = seq%sampleEvery == 0
	ct.childNs, ct.taxNs, ct.children = 0, 0, 0
	if ct.sampled {
		t.sampling.Add(1)
	}
}

// end closes client c's access, which ran from start to end.
func (t *tracer) end(c int, start, end int64) {
	ct := t.clients[c]
	if ct.sampled {
		t.sampling.Add(-1)
		d := end - start - ct.taxNs
		ct.self.Observe(sim.Duration(max(d-ct.childNs, 0)))
		if ct.children == 0 {
			ct.local.Observe(sim.Duration(d))
		}
		ct.keep(span{start: start, end: end, id: ct.cur, kind: spanAccess})
	}
	ct.cur = 0
	ct.sampled = false
}

// child records a child span of the sampled access in flight.
func (ct *clientTrace) child(kind uint8, start, end int64) {
	ct.childNs += end - start
	ct.children++
	ct.keep(span{start: start, end: end, id: ct.cur, parent: ct.cur, kind: kind})
}

func (ct *clientTrace) keep(s span) {
	if len(ct.spans) < spanCap {
		ct.spans = append(ct.spans, s)
	}
}

// byPID finds the client a prefetcher call belongs to: clients are opened
// with ids 1..n.
func (t *tracer) byPID(pid prefetch.PID) *clientTrace {
	if i := int(pid) - 1; i >= 0 && i < len(t.clients) {
		return t.clients[i]
	}
	return nil
}

// sampledCaller returns the client whose goroutine is calling when that
// client's access in flight is sampled, and nil otherwise.
func (t *tracer) sampledCaller() *clientTrace {
	if t.sampling.Load() == 0 {
		return nil
	}
	start := t.now()
	id := goid()
	for _, ct := range t.clients {
		if ct.gid != id {
			continue
		}
		// Only the client's own goroutine reads its state.
		if !ct.sampled {
			return nil
		}
		ct.taxNs += t.now() - start
		return ct
	}
	return nil
}

// tracedPrefetcher times Prefetcher.OnAccess and counts the candidates it
// returns on misses.
type tracedPrefetcher struct {
	prefetch.Prefetcher
	t *tracer
}

func (p *tracedPrefetcher) OnAccess(pid prefetch.PID, page prefetch.PageID, miss bool, dst []prefetch.PageID) []prefetch.PageID {
	ct := p.t.byPID(pid)
	if !p.t.on.Load() || ct == nil || ct.cur == 0 {
		return p.Prefetcher.OnAccess(pid, page, miss, dst)
	}
	n := len(dst)
	start := p.t.now()
	dst = p.Prefetcher.OnAccess(pid, page, miss, dst)
	end := p.t.now()
	ct.prefetch.Observe(sim.Duration(end - start))
	if miss {
		ct.pfMisses++
		ct.pfWindow += int64(len(dst) - n)
	}
	if ct.sampled {
		ct.child(spanPrefetch, start, end)
	}
	return dst
}

// tracedTransport times Transport.Call and counts pages and wire bytes.
type tracedTransport struct {
	remote.Transport
	t *tracer

	mu                           sync.Mutex
	call                         metrics.Histogram
	calls, pages, wireBytes, err int64
}

func newTracedTransport(tr remote.Transport, t *tracer) *tracedTransport {
	w := &tracedTransport{Transport: tr, t: t}
	t.mu.Lock()
	t.transports = append(t.transports, w)
	t.mu.Unlock()
	return w
}

func (tr *tracedTransport) Call(req *remote.Request) (*remote.Response, error) {
	t := tr.t
	if !t.on.Load() {
		return tr.Transport.Call(req)
	}
	ct := t.sampledCaller()
	start := t.now()
	resp, err := tr.Transport.Call(req)
	end := t.now()
	if ct != nil {
		ct.child(spanCall, start, end)
	}
	failed := err != nil || resp.Status != remote.StatusOK
	tr.mu.Lock()
	tr.call.Observe(sim.Duration(end - start))
	tr.calls++
	tr.pages += int64(remote.BatchPages(req))
	tr.wireBytes += wireLen(req, resp)
	if failed {
		tr.err++
	}
	keep := !failed && tr.calls%16 == 0
	tr.mu.Unlock()
	if keep {
		t.keepFrame(req, resp)
	}
	return resp, err
}

// keepFrame copies one request/response pair into the sample.
func (t *tracer) keepFrame(req *remote.Request, resp *remote.Response) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.frames) >= frameSampleCap {
		return
	}
	rq := *req
	rq.Payload = bytes.Clone(req.Payload)
	rs := *resp
	rs.Payload = bytes.Clone(resp.Payload)
	t.frames = append(t.frames, frame{&rq, &rs})
}

// countWriter counts bytes written to it.
type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) { *w += countWriter(len(p)); return len(p), nil }

// wireLen reports the encoded size of a request and its response.
func wireLen(req *remote.Request, resp *remote.Response) int64 {
	var w countWriter
	remote.EncodeRequest(&w, req)
	if resp != nil {
		remote.EncodeResponse(&w, resp)
	}
	return int64(w)
}

// writeSpans writes the kept spans as tab-separated lines — kind, id,
// parent, start ns, end ns — after a header naming the run.
func (t *tracer) writeSpans(path, header string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\n# kind\tid\tparent\tstart_ns\tend_ns\n", header)
	for _, ct := range t.clients {
		for _, s := range ct.spans {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.kind], s.id, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
