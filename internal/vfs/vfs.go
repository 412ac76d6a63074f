// Package vfs simulates the disaggregated virtual-file-system path of
// Remote Regions [ATC'18]: remote memory exposed as files, with page-granular
// reads and writes flowing through a VFS cache. It mirrors internal/vmm's
// latency composition — the same data path (legacy or lean), page cache and
// prefetcher — but with file semantics: no residency limit or swap-out;
// every read is a cache lookup, every write is buffered and flushed to the
// remote store asynchronously.
//
// This is the engine behind the D-VFS series of Figures 2 and 7.
package vfs

import (
	"fmt"

	"leap/internal/core"
	"leap/internal/datapath"
	"leap/internal/eventq"
	"leap/internal/metrics"
	"leap/internal/pagecache"
	"leap/internal/prefetch"
	"leap/internal/rdma"
	"leap/internal/sim"
	"leap/internal/storage"
)

// PID aliases prefetch.PID.
type PID = prefetch.PID

// Config parameterizes the simulated file system.
type Config struct {
	// Path selects legacy (block layer) or lean I/O.
	Path datapath.Config
	// CachePolicy and CacheCapacity configure the VFS cache.
	CachePolicy   pagecache.Policy
	CacheCapacity int
	// Prefetcher is consulted on reads; nil means none.
	Prefetcher prefetch.Prefetcher
	// Device is the backing store; nil defaults to remote memory.
	Device storage.Device
	// Seed drives the stochastic latency models.
	Seed uint64
}

// arrival tracks an in-flight prefetch.
type arrival struct {
	page core.PageID
	at   sim.Time
}

func arrivalLess(a, b arrival) bool { return a.at < b.at }

// FS is the simulated remote file system. Not safe for concurrent use.
type FS struct {
	cfg   Config
	clock sim.Clock
	path  *datapath.Path
	cache *pagecache.Cache
	dev   storage.Device
	pf    prefetch.Prefetcher

	inflight    map[core.PageID]sim.Time
	inflights   *eventq.Heap[arrival]
	lastDevPage core.PageID
	candBuf     []core.PageID

	// ReadLatency is the 4KB read latency distribution (the D-VFS CDFs).
	ReadLatency metrics.Histogram
	// WriteLatency is the buffered-write latency distribution.
	WriteLatency metrics.Histogram
	Counters     metrics.Counters
}

// New builds a file system simulator.
func New(cfg Config) *FS {
	rng := sim.NewRNG(cfg.Seed)
	dev := cfg.Device
	if dev == nil {
		dev = storage.NewRemote(rdma.New(rdma.Config{}, rng.Fork(1)))
	}
	pf := cfg.Prefetcher
	if pf == nil {
		pf = prefetch.None{}
	}
	return &FS{
		cfg:  cfg,
		path: datapath.New(cfg.Path, rng.Fork(2)),
		cache: pagecache.New(pagecache.Config{
			Capacity: cfg.CacheCapacity,
			Policy:   cfg.CachePolicy,
		}),
		dev:       dev,
		pf:        pf,
		inflight:  make(map[core.PageID]sim.Time),
		inflights: eventq.New(arrivalLess),
	}
}

// Cache exposes the VFS cache.
func (f *FS) Cache() *pagecache.Cache { return f.cache }

// Now reports the current virtual time.
func (f *FS) Now() sim.Time { return f.clock.Now() }

func (f *FS) flushArrivals(now sim.Time) {
	for f.inflights.Len() > 0 && f.inflights.Peek().at <= now {
		a := f.inflights.Pop()
		if at, ok := f.inflight[a.page]; ok && at == a.at {
			delete(f.inflight, a.page)
			f.cache.Insert(a.page, true, a.at)
		}
	}
	f.cache.Tick(now)
}

// Write buffers one page write; data lands in the cache immediately and the
// device write proceeds asynchronously (write-behind). The returned latency
// is what the caller observes.
func (f *FS) Write(pid PID, page core.PageID, think sim.Duration) sim.Duration {
	f.clock.Advance(think)
	now := f.clock.Now()
	f.flushArrivals(now)
	lat := f.path.HitLatency() // buffered write: cache insert cost
	f.cache.Insert(page, false, now)
	f.lastDevPage = page
	f.dev.Write(int(pid), now)
	f.Counters.Inc("writes")
	f.WriteLatency.Observe(lat)
	f.clock.Advance(lat)
	return lat
}

// Read fetches one page through the cache and returns the observed latency.
func (f *FS) Read(pid PID, page core.PageID, think sim.Duration) sim.Duration {
	f.clock.Advance(think)
	now := f.clock.Now()
	f.flushArrivals(now)
	f.Counters.Inc("reads")

	var lat sim.Duration
	miss := false
	if hit, wasPre := f.cache.Lookup(page, now); hit {
		lat = f.path.HitLatency()
		if wasPre {
			f.pf.OnPrefetchHit(pid)
		}
		f.Counters.Inc("cache_hits")
	} else if at, ok := f.inflight[page]; ok {
		delete(f.inflight, page)
		wait := at.Sub(now)
		if wait < 0 {
			wait = 0
		}
		lat = f.path.HitLatency() + wait
		f.pf.OnPrefetchHit(pid)
		f.Counters.Inc("inflight_hits")
	} else {
		miss = true
		b := f.path.RequestOverhead()
		dist := int64(page - f.lastDevPage)
		f.lastDevPage = page
		submit := now.Add(b.Total())
		done := f.dev.Read(int(pid), submit, dist)
		lat = b.Total() + done.Sub(submit) + f.cache.AllocLatency()
		f.cache.Insert(page, false, now.Add(lat))
		f.Counters.Inc("cache_misses")
	}

	f.ReadLatency.Observe(lat)
	f.clock.Advance(lat)

	f.candBuf = f.pf.OnAccess(pid, page, miss, f.candBuf[:0])
	f.issuePrefetches(pid, f.candBuf, f.clock.Now())
	return lat
}

func (f *FS) issuePrefetches(pid PID, cands []core.PageID, now sim.Time) {
	for _, c := range cands {
		if f.cache.Contains(c) {
			continue
		}
		if _, ok := f.inflight[c]; ok {
			continue
		}
		dist := int64(c - f.lastDevPage)
		f.lastDevPage = c
		done := f.dev.Read(int(pid), now, dist)
		f.inflight[c] = done
		f.inflights.Push(arrival{page: c, at: done})
		f.Counters.Inc("prefetch_issued")
	}
}

// Summary renders the read-side outcome compactly.
func (f *FS) Summary() string {
	s := f.ReadLatency.Summarize()
	return fmt.Sprintf("reads=%d hits=%d misses=%d p50=%v p99=%v",
		f.Counters.Get("reads"), f.Counters.Get("cache_hits"),
		f.Counters.Get("cache_misses"), s.P50, s.P99)
}
