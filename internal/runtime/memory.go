// Package runtime implements the leap.Memory runtime — the byte-addressable
// paged memory that fuses the predictor, prefetchers, page cache and the
// real remote-memory substrate behind one fault path (internal/paging). The
// root package leap re-exports it; use leap.Open.
package runtime

import (
	"errors"
	"fmt"
	"sync/atomic"

	"leap/internal/control"
	"leap/internal/core"
	"leap/internal/datapath"
	"leap/internal/metrics"
	"leap/internal/pagecache"
	"leap/internal/pagemap"
	"leap/internal/paging"
	"leap/internal/prefetch"
	"leap/internal/remote"
	"leap/internal/sim"
	"leap/internal/ztier"
)

// Memory is the byte-addressable remote-memory runtime: the paper's full
// stack fused into one object. Local memory is a bounded set of page
// frames (the cgroup budget); everything beyond it lives on the remote
// substrate (RemoteHost: rendezvous-placed, replicated slabs reached over
// in-process or TCP transports). An access to a non-local page takes the
// same fault path as the simulator — the internal/paging engine shared with
// Simulate — so the majority-trend predictor watches the fault stream,
// prefetch windows go out to the real host through the async ticket engine
// (doorbell-batched wire frames), and the adaptive page cache decides
// eviction, while real page images move underneath.
//
// Time is virtual: every fault charges the modeled data-path + fabric
// latency to the runtime's clock (WithClock shares it), so hit ratios,
// latency percentiles and prefetch accuracy are reproducible bit-for-bit
// from the options — while the bytes, placement, replication and failover
// are real.
//
// Memory is safe for concurrent use: ReadAt, WriteAt, Get, Flush and Stats
// may be called from arbitrary goroutines. The fault path is sharded by
// PageID stripe (WithShards): each stripe owns its engine, predictor state,
// page cache, residency budget and frame table behind its own mutex, so a
// page-cache hit takes exactly one shard lock and hits on different stripes
// scale across cores. Cross-shard concerns — the virtual clock, the error
// latch, the demand-fetch overlap budget and the control-plane tick cadence
// — are atomics on the Memory coordinator; the documented lock order is
// shard.mu → plane.mu → host.mu, with at most one shard lock held at a
// time. Within a shard, a full miss drops the lock for the remote fetch
// when WithConcurrency allows, registering a single-flight entry so
// concurrent faults on the same page wait for one fetch while faults on
// other pages proceed in parallel. The default WithShards(1) runs one
// stripe — bit-identical to the pre-sharding serialized runtime.
//
// The paper's multi-process deployment (§4.1) maps onto Client handles:
// each logical client id gets its own predictor over its own fault stream
// (per stripe), while all clients share the page caches, the residency
// budget and the remote host. Two caveats: the slice returned by Memory.Get
// aliases the live frame table and is safe only for single-goroutine use
// (Client.Get copies instead), and a clock shared via WithClock must not be
// touched while operations are in flight.
type Memory struct {
	// shards are the PageID stripes of the fault path; page pg belongs to
	// shards[uint64(pg)&mask]. len(shards) is a power of two.
	shards []*shard
	mask   uint64

	host *remote.Host
	// ownHost marks a self-built in-process host (closed by Close; a host
	// supplied via WithRemoteHost is the caller's to close).
	ownHost bool
	clock   *sim.Clock
	qdepth  int
	// conc is the WithConcurrency bound: the number of demand-miss fetches
	// allowed to overlap outside the shard locks, globally across shards.
	// conc <= 1 keeps every fetch under its shard's lock — the strictly
	// serialized PR-4 execution order.
	conc     int
	fetching atomic.Int64 // demand fetches currently running unlocked

	// err latches the first unrecoverable store failure (a writeback no
	// replica accepted); every subsequent operation reports it. An atomic
	// CAS keeps the latch first-wins across shards without a coordinator
	// lock.
	err atomic.Pointer[error]

	// plane is the attached control plane (nil without WithControlPlane).
	// planeEvery is the virtual-time tick cadence and planeNext the next due
	// tick (atomic: the cadence check runs lock-free on every operation, and
	// a CAS elects exactly one goroutine to run each due tick — lock order
	// is shard.mu → plane.mu → host.mu, and the tick path runs with no
	// shard lock held, entering at plane.mu, so plane actions may mutate the
	// host freely).
	plane      *control.Plane
	planeEvery sim.Duration
	planeNext  atomic.Int64
	// planeTicks / planeActs count ticks run and successful actions by kind.
	// Atomics: Stats must not order shard locks against the plane's locks.
	planeTicks atomic.Int64
	planeActs  [8]atomic.Int64
	// slabPages sizes agents the plane provisions on the private cluster.
	slabPages int
}

// demandFetch is one single-flight demand read in progress with the shard
// lock dropped; done closes once the page is mapped in (or the fetch
// failed).
type demandFetch struct {
	done chan struct{}
}

// frame is one 4KB local page frame. Frames are pooled per shard; data
// stays at PageSize.
type frame struct {
	data  []byte
	dirty bool
	next  *frame // free list
}

// DefaultConcurrency is the default WithConcurrency bound: how many
// demand-miss fetches may overlap outside the fault-path locks.
const DefaultConcurrency = 8

// memOptions collects Open's functional options.
type memOptions struct {
	pfFactory  func() prefetch.Prefetcher
	ensCfg     *prefetch.EnsembleConfig
	host       *remote.Host
	capacity   int
	queueDepth int
	conc       int
	shards     int
	clock      *sim.Clock
	seed       uint64
	agents     int
	slabPages  int
	planeCfg   *control.Config
	planeEvery sim.Duration
	retry      remote.RetryPolicy
	retrySet   bool
	ztierBytes int64
	wireComp   bool
}

// Option configures Open.
type Option func(*memOptions)

// WithPrefetcherFactory selects the prefetching policy consulted on every
// fault (default: the Leap majority-trend predictor) by factory: every
// PageID stripe calls f once and owns the returned instance under its own
// lock, so any policy runs sharded. The factory must return independent
// instances (stripe state is never shared); at WithShards(1) it is called
// exactly once. Mutually exclusive with WithEnsemble.
func WithPrefetcherFactory(f func() prefetch.Prefetcher) Option {
	return func(o *memOptions) { o.pfFactory = f }
}

// WithEnsemble replaces the fixed prefetching policy with the online
// per-client selector (prefetch.Ensemble): each client's arms — private
// instances of the configured prefetchers — shadow-score the client's
// fault stream, and live prefetch decisions route to the current winner
// with hysteresis. Deterministic given the seed: selection is a pure
// function of the access stream. Each stripe owns an independent selector
// (per-stripe fault streams, like every predictor here); Stats.Ensemble
// aggregates them and Client.SelectionHistory exposes per-client switches.
// Mutually exclusive with WithPrefetcherFactory. The zero EnsembleConfig
// takes the documented defaults.
func WithEnsemble(cfg prefetch.EnsembleConfig) Option {
	return func(o *memOptions) { o.ensCfg = &cfg }
}

// WithRemoteHost runs the Memory over an existing host — typically one
// dialed to TCP agents (cmd/leapagent). The caller keeps ownership: Close
// flushes but does not close it. Without this option Open builds a private
// three-agent in-process cluster with two-way replication.
func WithRemoteHost(h *remote.Host) Option { return func(o *memOptions) { o.host = h } }

// WithCacheCapacity sets the local memory budget in pages — the cgroup
// limit resident frames plus the prefetch cache are charged against
// (default 1024 pages = 4MB). With WithShards the budget is striped
// statically: each shard gets capacity/shards pages (the remainder goes to
// the low shards), so the global budget is exact while every shard admits
// and evicts under only its own lock.
func WithCacheCapacity(pages int) Option { return func(o *memOptions) { o.capacity = pages } }

// WithQueueDepth bounds the async ticket engine's doorbell batches: up to
// this many page operations ride one wire frame per agent, and eviction
// writebacks accumulate behind a dirty backlog of the same bound (default
// 8; 1 degenerates to one synchronous round trip per page).
func WithQueueDepth(depth int) Option { return func(o *memOptions) { o.queueDepth = depth } }

// WithConcurrency bounds how many demand-miss fetches may run outside the
// fault-path locks at once, globally across shards (default
// DefaultConcurrency). Size it to the number of goroutines expected to
// drive the Memory. 1 pins every fetch under its shard's lock — the fault
// path becomes strictly serialized per stripe, executing exactly like the
// pre-concurrency runtime; a single-goroutine caller makes identical
// decisions at every setting.
func WithConcurrency(n int) Option { return func(o *memOptions) { o.conc = n } }

// WithShards splits the fault path into n PageID stripes, each with its own
// lock, engine, predictor, page cache and residency budget, so operations
// on different stripes proceed in parallel and page-cache hits take exactly
// one shard lock (default 1; values are rounded up to the next power of
// two). Page pg lands on stripe pg mod n — round-robin striping, so a hot
// contiguous range spreads across all stripes. Each stripe's Leap predictor
// sees only its own fault stream; a sequential sweep's in-stripe deltas are
// uniform, so trend detection survives striping, and cross-stripe prefetch
// candidates are filtered out rather than issued blind. WithShards(1) is
// bit-identical to the pre-sharding serialized runtime. WithCacheCapacity
// must provide at least one page per shard.
func WithShards(n int) Option { return func(o *memOptions) { o.shards = n } }

// DefaultDecompressLatency is the virtual-time charge of unsealing one page
// from the compressed victim tier (WithCompressedTier): roughly an LZ4-class
// 4KB decompression — microseconds, well under the modeled fabric round
// trip, which is the whole point of the tier.
//
// Measured ztier.Decompress per 4KB page (BenchmarkDecompress, fastest and
// median of 9 runs, 2-core Intel Xeon VM, NumCPU 2, go1.24.0): 1.3–1.6 µs
// on a perfbench-style dictionary-run page and 3.2–3.6 µs on the
// semi-compressible record page the ztier figure uses (3.6–3.9 µs and
// 5.7–6.4 µs before the codec's copy-based match decode). The model keeps
// 1.5 µs anyway: the charge is virtual time, and moving it would change
// every ztier figure golden and every fault_* benchmark metric, for a
// number that depends on the machine and the page contents.
const DefaultDecompressLatency = 1500 * sim.Nanosecond

// WithCompressedTier interposes a zswap-style compressed victim tier of the
// given byte budget between the residency LRU and the remote host (default
// 0: no tier). Evicted pages with a useful image are sealed — compressed
// with a deterministic LZ-style codec, incompressible pages capped at ~4KB
// plus a header — into per-stripe pools charged against the budget; a fault
// on a sealed page decompresses locally, charging DefaultDecompressLatency
// on the virtual clock instead of a fabric round trip. Pools overflow
// oldest-first: dirty victims write back through the async ticket engine.
// With WithShards the budget is striped like WithCacheCapacity — each
// stripe's pool lives under its own shard lock, so no new cross-shard locks
// appear. Zero keeps the fault path bit-identical to the tierless runtime.
func WithCompressedTier(bytes int64) Option { return func(o *memOptions) { o.ztierBytes = bytes } }

// WithWireCompression ships the private cluster's batched doorbell frames
// with per-page compressed payloads (default false): write batches go out
// compressed and read batches ask agents for compressed responses, end to
// end through any transport. The codec is deterministic, so replay is
// unchanged — the realized wire ratio shows up in Stats.Host's Wire*
// counters, not the latency model. Incompatible with WithRemoteHost: set
// RemoteHostConfig.Compress on the supplied host instead.
func WithWireCompression(on bool) Option { return func(o *memOptions) { o.wireComp = on } }

// WithClock shares a virtual clock with the runtime (for virtual-time
// tests: fault latencies are charged to it, so a test can interleave its
// own events deterministically). Default: a private clock starting at 0.
func WithClock(c *sim.Clock) Option { return func(o *memOptions) { o.clock = c } }

// WithSeed seeds the latency models (fabric jitter, data-path stage draws).
// Equal seeds and equal access sequences replay bit-identically.
func WithSeed(seed uint64) Option { return func(o *memOptions) { o.seed = seed } }

// shardSeed derives the latency-model seed for stripe idx. Stripe 0 keeps
// the user seed exactly — WithShards(1) must replay the unsharded runtime
// bit-for-bit — and higher stripes decorrelate through a splitmix64 step.
func shardSeed(seed uint64, idx int) uint64 {
	if idx == 0 {
		return seed
	}
	z := seed + uint64(idx)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// Open builds a Memory runtime. With no options it is the full Leap stack
// of the paper over a private in-process remote-memory cluster: lean data
// path, eager cache eviction, majority-trend prefetching, async
// doorbell-batched remote I/O.
func Open(opts ...Option) (*Memory, error) {
	o := memOptions{
		capacity:   1024,
		queueDepth: remote.DefaultQueueDepth,
		conc:       DefaultConcurrency,
		seed:       42,
		agents:     3,
		slabPages:  1024,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.capacity <= 0 {
		return nil, fmt.Errorf("leap: cache capacity %d, need > 0", o.capacity)
	}
	if o.queueDepth <= 0 {
		o.queueDepth = 1
	}
	if o.conc <= 0 {
		o.conc = DefaultConcurrency
	}
	nshards := 1
	for nshards < o.shards {
		nshards <<= 1
	}
	if o.ensCfg != nil && o.pfFactory != nil {
		return nil, fmt.Errorf("leap: WithEnsemble supplies its own per-stripe selector and is mutually exclusive with WithPrefetcherFactory")
	}
	if o.capacity < nshards {
		return nil, fmt.Errorf("leap: cache capacity %d pages < %d shards, need at least one page per shard", o.capacity, nshards)
	}
	if o.retrySet && o.host != nil {
		return nil, fmt.Errorf("leap: WithRetryPolicy configures the private in-process cluster; set RemoteHostConfig.Retry (and SetTimeSource) on the host passed to WithRemoteHost instead")
	}
	if o.ztierBytes < 0 {
		return nil, fmt.Errorf("leap: compressed tier budget %d bytes, need >= 0", o.ztierBytes)
	}
	if o.wireComp && o.host != nil {
		return nil, fmt.Errorf("leap: WithWireCompression configures the private in-process cluster; set RemoteHostConfig.Compress on the host passed to WithRemoteHost instead")
	}
	m := &Memory{
		clock:     o.clock,
		qdepth:    o.queueDepth,
		conc:      o.conc,
		slabPages: o.slabPages,
		mask:      uint64(nshards - 1),
	}
	if m.clock == nil {
		m.clock = &sim.Clock{}
	}
	m.host = o.host
	if m.host == nil {
		transports := make([]remote.Transport, o.agents)
		for i := range transports {
			tr := remote.Transport(remote.NewInProc(remote.NewAgent(o.slabPages, 0)))
			if o.planeCfg != nil {
				// With a plane attached the private cluster's transports get
				// fault-injection wrappers: pass-through while healthy (bit-
				// identical to the bare transport), observable by the plane,
				// and reachable via Host.Transports for chaos tests.
				tr = remote.NewFaultTransport(i, tr, nil)
			}
			transports[i] = tr
		}
		h, err := remote.NewHost(remote.HostConfig{
			SlabPages:  o.slabPages,
			Replicas:   2,
			QueueDepth: o.queueDepth,
			Seed:       o.seed,
			Retry:      o.retry,
			Compress:   o.wireComp,
		}, transports)
		if err != nil {
			return nil, err
		}
		m.host = h
		m.ownHost = true
		if o.retrySet {
			// Ticket deadlines measure virtual time off the runtime clock,
			// which is atomic — race-free from any stripe.
			h.SetTimeSource(m.clock.Now)
		}
	}
	// Resolve one prefetcher per stripe up front, so factory and ensemble
	// misconfigurations surface as Open errors rather than mid-fault.
	pfs := make([]prefetch.Prefetcher, nshards)
	for i := range pfs {
		switch {
		case o.ensCfg != nil:
			en, err := prefetch.NewEnsemble(*o.ensCfg)
			if err != nil {
				return nil, fmt.Errorf("leap: WithEnsemble: %w", err)
			}
			pfs[i] = en
		case o.pfFactory != nil:
			p := o.pfFactory()
			if p == nil {
				return nil, fmt.Errorf("leap: WithPrefetcherFactory returned nil for stripe %d", i)
			}
			pfs[i] = p
		default:
			pfs[i] = prefetch.NewLeap(core.Config{})
		}
	}
	m.shards = make([]*shard, nshards)
	for i := range m.shards {
		m.shards[i] = m.newShard(i, nshards, &o, pfs[i])
	}
	if o.planeCfg != nil {
		m.attachPlane(*o.planeCfg, o.planeEvery)
	}
	return m, nil
}

// newShard builds stripe idx of nshards: its own engine (latency models
// seeded per stripe, stripe 0 keeping the user seed), the stripe's
// prefetcher pf (resolved by Open — default Leap, one factory-built
// instance per stripe, or an ensemble selector), cache, residency budget and frame pool. The global
// capacity is striped statically — capacity/nshards pages each, remainder
// to the low stripes.
func (m *Memory) newShard(idx, nshards int, o *memOptions, pf prefetch.Prefetcher) *shard {
	capacity := o.capacity / nshards
	if idx < o.capacity%nshards {
		capacity++
	}
	s := &shard{
		m:        m,
		idx:      idx,
		frames:   pagemap.New[*frame](capacity),
		written:  pagemap.New[struct{}](0),
		faulting: pagemap.New[struct{}](0),
		demand:   pagemap.New[*demandFetch](0),
	}
	s.ens, _ = pf.(*prefetch.Ensemble)
	// The full Leap stack of §4: lean data path, eager cache eviction, and
	// (unless overridden) majority-trend prefetching — the same
	// configuration Simulate's SystemDVMMLeap preset builds, so a Memory
	// run and a simulator run over one trace make identical decisions.
	s.eng = paging.New[*shard](paging.Config{
		Path:        datapath.Config{Kind: datapath.Lean},
		CachePolicy: pagecache.EvictEager,
		Prefetcher:  pf,
		QueueDepth:  o.queueDepth,
		Seed:        shardSeed(o.seed, idx),
	})
	if nshards > 1 {
		// Prefetch candidates outside this stripe belong to a sibling's
		// engine: filter them instead of issuing blind (a foreign-page frame
		// here would break the single-owner invariant). The predictor's
		// in-stripe trends produce in-stripe candidates, so for Leap this
		// only trims the cold-start neighbor fallback; baseline readahead
		// loses the cross-stripe tail by design. Nil at one shard: the
		// unfiltered, bit-identical engine.
		own := uint64(idx)
		s.eng.Owns = func(pg core.PageID) bool { return uint64(pg)&m.mask == own }
	}
	s.res = paging.NewResident(capacity)
	s.res.Limit = int64(capacity)
	s.eng.OnInsert = func(ss *shard) { ss.res.Charged++ }
	s.eng.OnIssue = (*shard).fetchPrefetches
	s.eng.OnEvict = (*shard).evictResident
	s.eng.Cache().OnEvict = s.cacheEvicted
	s.cAccesses = s.eng.Counters.Handle("accesses")
	s.cFaults = s.eng.Counters.Handle("faults")
	s.cResidentHits = s.eng.Counters.Handle("resident_hits")
	s.cDemandWaits = s.eng.Counters.Handle("demand_waits")
	if o.ztierBytes > 0 {
		// The compressed tier's byte budget is striped exactly like the
		// frame budget: bytes/nshards each, remainder to the low stripes.
		// Each pool lives under its stripe's lock — no cross-shard locks.
		zb := o.ztierBytes / int64(nshards)
		if int64(idx) < o.ztierBytes%int64(nshards) {
			zb++
		}
		s.ztier = ztier.NewPool(zb, remote.PageSize)
		s.ztier.OnEvict = s.ztierEvicted
		s.eng.EnableZtier(s.ztier.Contains, DefaultDecompressLatency)
	}
	return s
}

// Now reports the runtime's virtual time.
func (m *Memory) Now() sim.Time { return m.clock.Now() }

// SetRecording toggles metric collection — populate/warmup phases run with
// recording off, exactly like the simulator's warmup. Turning recording on
// snapshots cache counters so Stats covers only the measured phase. Bytes
// always move; only accounting pauses. Shards toggle one by one: call only
// while no operations are in flight.
func (m *Memory) SetRecording(on bool) {
	for _, s := range m.shards {
		s.mu.Lock()
		if on && !s.eng.Recording() {
			s.cacheStats0 = s.eng.Cache().Stats()
		}
		s.eng.SetRecording(on)
		s.mu.Unlock()
	}
}

// Host exposes the remote substrate (stats, repair, rebalance hooks). The
// Host is itself safe for concurrent use.
func (m *Memory) Host() *remote.Host { return m.host }

// zeroFrame clears a recycled frame's bytes.
func zeroFrame(f *frame) {
	clear(f.data)
}

// loadErr reports the latched unrecoverable failure, or nil.
func (m *Memory) loadErr() error {
	if p := m.err.Load(); p != nil {
		return *p
	}
	return nil
}

// latchErr records err as the Memory's permanent failure; the first latch
// wins (CAS — shards race here without a coordinator lock).
func (m *Memory) latchErr(err error) {
	m.err.CompareAndSwap(nil, &err)
}

// latchWriteback records err as the Memory's permanent store failure —
// unless it is a read-op failure surfaced through Flush. Flush drains read
// and write tickets alike, and a failed prefetch read is handled per-ticket
// (the prefetch is abandoned, a later demand access refetches): only a
// writeback no replica accepted means acked application data is gone.
func (m *Memory) latchWriteback(err error) {
	if err == nil || m.err.Load() != nil || isReadOpError(err) {
		return
	}
	m.latchErr(fmt.Errorf("leap: writeback failed: %w", err))
}

// isReadOpError reports whether err is a ticket-engine read failure.
func isReadOpError(err error) bool {
	var oe *remote.OpError
	return errors.As(err, &oe) && oe.Op == remote.OpRead
}

// Get faults page pg in (prefetching around it) and returns its 4KB frame.
// The returned slice is a read-only view into the owning shard's frame
// table, valid until the next Memory operation — which makes it safe only
// when one goroutine drives the Memory. Concurrent callers should use
// Client.Get (which copies) or ReadAt; use WriteAt to mutate pages.
func (m *Memory) Get(pg core.PageID) ([]byte, error) {
	s := m.shardFor(pg)
	s.mu.Lock()
	f, _, err := s.page(0, pg)
	var data []byte
	if err == nil {
		data = f.data
	}
	s.mu.Unlock()
	m.tickIfDue()
	if err != nil {
		return nil, err
	}
	return data, nil
}

// ReadAt implements io.ReaderAt over the paged address space: it fills p
// from offset off, faulting (and prefetching) page by page. Never-written
// memory reads as zeros; there is no EOF. Safe for concurrent use; each
// page is read atomically, a multi-page span is not.
func (m *Memory) ReadAt(p []byte, off int64) (int, error) {
	n, _, err := m.readAt(0, p, off)
	return n, err
}

// readAt is ReadAt on behalf of client pid, also reporting the cost of the
// last page access. Bytes are copied out while the owning shard's lock is
// held, page by page.
func (m *Memory) readAt(pid prefetch.PID, p []byte, off int64) (int, faultCost, error) {
	if off < 0 {
		return 0, faultCost{}, fmt.Errorf("leap: negative offset %d", off)
	}
	n := 0
	var cost faultCost
	for n < len(p) {
		pg := core.PageID(off / remote.PageSize)
		s := m.shardFor(pg)
		s.mu.Lock()
		f, fc, err := s.page(pid, pg)
		cost = fc
		if err != nil {
			s.mu.Unlock()
			return n, cost, err
		}
		c := copy(p[n:], f.data[off%remote.PageSize:])
		s.mu.Unlock()
		m.tickIfDue()
		n += c
		off += int64(c)
	}
	return n, cost, nil
}

// WriteAt implements io.WriterAt: it copies p into the paged address space
// at offset off. Partially covered pages fault in first (read-modify-write);
// dirty frames are written back to the remote host on eviction through the
// async ticket engine. Safe for concurrent use; each page is written
// atomically, a multi-page span is not.
func (m *Memory) WriteAt(p []byte, off int64) (int, error) {
	n, _, err := m.writeAt(0, p, off)
	return n, err
}

// writeAt is WriteAt on behalf of client pid, also reporting the cost of
// the last page access.
func (m *Memory) writeAt(pid prefetch.PID, p []byte, off int64) (int, faultCost, error) {
	if off < 0 {
		return 0, faultCost{}, fmt.Errorf("leap: negative offset %d", off)
	}
	n := 0
	var cost faultCost
	for n < len(p) {
		pg := core.PageID(off / remote.PageSize)
		s := m.shardFor(pg)
		s.mu.Lock()
		f, fc, err := s.page(pid, pg)
		cost = fc
		if err != nil {
			s.mu.Unlock()
			return n, cost, err
		}
		c := copy(f.data[off%remote.PageSize:], p[n:])
		f.dirty = true
		s.mu.Unlock()
		m.tickIfDue()
		n += c
		off += int64(c)
	}
	return n, cost, nil
}

// Flush drains every queued asynchronous remote operation (each shard's
// writeback backlog, then the host's ticket queues) and reports the first
// store failure, if any. Resident dirty frames stay local — they are
// memory, not a write-through cache — and reach the host on eviction.
func (m *Memory) Flush() error {
	err := m.flushAll()
	m.tickIfDue()
	return err
}

// flushAll drains per-shard writeback backlogs (one shard lock at a time)
// and then the shared host, latching any store failure.
func (m *Memory) flushAll() error {
	for _, s := range m.shards {
		s.mu.Lock()
		s.eng.FlushWriteback(0, m.clock.Now())
		s.mu.Unlock()
	}
	if err := m.host.Flush(); err != nil && m.err.Load() == nil && !isReadOpError(err) {
		m.latchErr(fmt.Errorf("leap: flush failed: %w", err))
	}
	return m.loadErr()
}

// Close flushes queued remote operations and, when the runtime owns its
// in-process cluster, closes the host. A host supplied via WithRemoteHost
// is left open for its owner.
func (m *Memory) Close() error {
	err := m.flushAll()
	if m.ownHost {
		if cerr := m.host.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Stats aggregates the runtime's fault-path accounting. Counts are
// cumulative since Open.
type Stats struct {
	// Accesses is every page touch; ResidentHits paid no fault.
	Accesses, ResidentHits int64
	// Faults is every non-resident access; CacheHits landed on a completed
	// prefetch, InflightHits on one still in flight, Misses went to the
	// host (or materialized a zero page).
	Faults, CacheHits, InflightHits, Misses int64
	// DemandWaits counts faults that waited on another goroutine's
	// in-flight demand fetch of the same page instead of re-issuing it —
	// the single-flight dedup at work. Always 0 single-threaded.
	DemandWaits int64
	// PrefetchIssued counts pages the prefetcher requested; Swapouts counts
	// resident evictions.
	PrefetchIssued, Swapouts int64
	// Evictions counts residency evictions that reached the byte-moving
	// eviction hook; WritebackPages counts page images actually pushed to
	// the host by eviction or compressed-tier overflow. Both are
	// recording-gated like every counter here.
	Evictions, WritebackPages int64
	// HitRatio is the fraction of accesses that did not pay a full miss.
	HitRatio float64
	// Accuracy is prefetch hits / prefetch issued; Coverage is prefetch
	// hits / faults (§3.1 definitions).
	Accuracy, Coverage float64
	// Latency summarizes the virtual-time fault latency distribution,
	// merged across shards.
	Latency metrics.Summary
	// Host is the remote substrate's accounting (wire frames, failovers,
	// repairs).
	Host remote.HostStats
	// Control is the attached control plane's view of the cluster and the
	// actions it has taken (zero-valued without WithControlPlane).
	Control ControlStats
	// Ztier is the compressed victim tier's accounting (zero-valued
	// without WithCompressedTier).
	Ztier ZtierStats
	// Ensemble is the online prefetcher selector's accounting (zero-valued
	// without WithEnsemble).
	Ensemble EnsembleStats
}

// EnsembleStats is the online prefetcher selector's accounting, summed
// across stripes. The zero value (Enabled false) means no selector is
// attached; every field is a plain comparable scalar, so Stats stays
// comparable with == (the ZtierStats discipline). Per-client selection
// detail lives on Client.SelectionHistory.
type EnsembleStats struct {
	// Enabled reports whether WithEnsemble attached the selector.
	Enabled bool
	// Clients counts (client, stripe) selector states created — a client
	// faulting on every stripe counts once per stripe.
	Clients int
	// Epochs counts selection epochs closed; Switches counts arm changes
	// taken after hysteresis.
	Epochs, Switches int64
	// Regret is the cumulative bandit regret in prefetch hits: per epoch,
	// the best arm's scored hits beyond the selected arm's.
	Regret int64
}

// ZtierStats is the compressed victim tier's accounting, summed across
// stripes. The zero value (Enabled false) means no tier is attached; every
// field is a plain comparable scalar, so Stats stays comparable with == —
// the discipline the replay-determinism tests rely on (see ControlStats).
type ZtierStats struct {
	// Enabled reports whether WithCompressedTier attached a tier.
	Enabled bool
	// BudgetBytes is the configured byte budget; UsedBytes and Pages are
	// the current occupancy (compressed bytes plus per-entry overhead).
	BudgetBytes, UsedBytes int64
	Pages                  int
	// Hits counts faults served by local decompression instead of a remote
	// read (recording-gated). Seals counts pages compressed in and Takes
	// exclusive removals on a hit — cumulative since Open, warmup included.
	Hits, Seals, Takes int64
	// OverflowEvictions counts sealed pages pushed out by the byte budget;
	// OverflowWritebacks of those were dirty and went to the host.
	OverflowEvictions, OverflowWritebacks int64
	// RawBytes and CompressedBytes are cumulative sealed input and output
	// sizes; Ratio is their quotient — the realized compression ratio (0
	// with nothing sealed yet).
	RawBytes, CompressedBytes int64
	Ratio                     float64
}

// Stats reports the runtime's cumulative accounting, summed across shards.
// Safe to call concurrently with operations; each shard's contribution is
// internally consistent (shards are visited one lock at a time, so under
// concurrent load the cross-shard snapshot is per-stripe, not global — with
// WithShards(1), or while no operations are in flight, it is exact).
func (m *Memory) Stats() Stats {
	var s Stats
	var lat metrics.Histogram
	var prefetchHits int64
	for _, sh := range m.shards {
		sh.mu.Lock()
		c := &sh.eng.Counters
		cs := sh.eng.Cache().Stats()
		s.Accesses += c.Get("accesses")
		s.ResidentHits += c.Get("resident_hits")
		s.Faults += c.Get("faults")
		s.CacheHits += c.Get("cache_hits")
		s.InflightHits += c.Get("inflight_hits")
		s.Misses += c.Get("cache_misses")
		s.DemandWaits += c.Get("demand_waits")
		s.PrefetchIssued += c.Get("prefetch_issued")
		s.Swapouts += c.Get("swapouts")
		s.Evictions += sh.nEvictions
		s.WritebackPages += sh.nWritebacks
		s.Ztier.Hits += c.Get("ztier_hits")
		if sh.ztier != nil {
			zs := sh.ztier.Stats()
			s.Ztier.Enabled = true
			s.Ztier.BudgetBytes += sh.ztier.Budget()
			s.Ztier.UsedBytes += zs.UsedBytes
			s.Ztier.Pages += zs.Pages
			s.Ztier.Seals += zs.Seals
			s.Ztier.Takes += zs.Takes
			s.Ztier.OverflowEvictions += zs.OverflowEvictions
			s.Ztier.OverflowWritebacks += zs.OverflowDirty
			s.Ztier.RawBytes += zs.RawBytes
			s.Ztier.CompressedBytes += zs.CompressedBytes
		}
		if sh.ens != nil {
			clients, epochs, switches, regret := sh.ens.Totals()
			s.Ensemble.Enabled = true
			s.Ensemble.Clients += clients
			s.Ensemble.Epochs += epochs
			s.Ensemble.Switches += switches
			s.Ensemble.Regret += regret
		}
		lat.Merge(&sh.eng.FaultLatency)
		prefetchHits += cs.PrefetchHits - sh.cacheStats0.PrefetchHits
		sh.mu.Unlock()
	}
	s.Latency = lat.Summarize()
	// The host and plane keep their own locks; reading them with no shard
	// lock held keeps the lock order acyclic.
	s.Host = m.host.Stats()
	s.Control = m.controlStats()
	if s.Accesses > 0 {
		s.HitRatio = 1 - float64(s.Misses)/float64(s.Accesses)
	}
	prefetchHits += s.InflightHits
	if s.PrefetchIssued > 0 {
		s.Accuracy = float64(prefetchHits) / float64(s.PrefetchIssued)
	}
	if s.Faults > 0 {
		s.Coverage = float64(prefetchHits) / float64(s.Faults)
	}
	if s.Ztier.CompressedBytes > 0 {
		s.Ztier.Ratio = float64(s.Ztier.RawBytes) / float64(s.Ztier.CompressedBytes)
	}
	return s
}
