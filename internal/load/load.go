// Package load is the closed-loop load generator for the leap.Memory
// runtime: M logical clients, each with a private page range and a
// deterministic operation stream (stamped page writes, read-your-writes
// verified reads, cross-client reads), driven three ways —
//
//   - Drive: N real goroutines hammer a shared Memory through per-client
//     handles. Thread interleaving is the scheduler's; per-client program
//     order, the stamp oracle and the final image stay checkable. This is
//     the stress/race/chaos mode.
//   - Sequential: one goroutine executes the same streams in a seeded
//     pseudo-random interleave, verifying read-your-writes after every
//     read. Fully deterministic — a failing seed replays exactly. This is
//     the property-test mode.
//   - Measure: Sequential plus per-operation virtual-latency recording
//     (total and CPU-serial share via Client.LastFault), feeding the
//     closed-loop concurrency model that `leapbench -fig concurrency`
//     renders. Deterministic, so the figure is byte-identical across runs.
//
// Every stream is a pure function of (Config.Seed, client id): Drive,
// Sequential and Measure issue identical per-client operation sequences,
// only the interleaving differs.
package load

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"leap/internal/core"
	"leap/internal/remote"
	"leap/internal/runtime"
	"leap/internal/sim"
)

// IO is the access surface a stream drives; *runtime.Memory and
// *runtime.Client both satisfy it.
type IO interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
}

// Config sizes a load run.
type Config struct {
	// Clients is the number of logical clients (predictor isolation
	// domains); each owns the page range [id*PagesPerClient,
	// (id+1)*PagesPerClient).
	Clients int
	// Goroutines is the worker count for Drive (client c runs on worker
	// c mod Goroutines, so each client keeps a single-writer program
	// order). Sequential and Measure ignore it.
	Goroutines int
	// OpsPerClient is how many operations each client performs.
	OpsPerClient int
	// PagesPerClient is each client's private range (default 256).
	PagesPerClient int64
	// Seed drives every stream and the Sequential/Measure interleave.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Goroutines <= 0 {
		c.Goroutines = 1
	}
	if c.PagesPerClient <= 0 {
		c.PagesPerClient = 256
	}
	return c
}

// Span reports the total page span the run touches.
func (c Config) Span() int64 { return int64(c.Clients) * c.PagesPerClient }

// Stamp layout: bytes 0..7 page id, 8..15 version, rest a (page, version)-
// keyed pattern. A page whose first 16 bytes are zero was never written.
const stampHeader = 16

// fillStamp writes the stamp image for (page, version) into buf.
func fillStamp(page core.PageID, version uint64, buf []byte) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(page))
	binary.LittleEndian.PutUint64(buf[8:16], version)
	x := uint64(page)*0x9E3779B97F4A7C15 + version*0xBF58476D1CE4E5B9 + 1
	for i := stampHeader; i < len(buf); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = byte(x)
	}
}

// checkStamp verifies buf holds exactly the stamp image for (page,
// version); version 0 means never written, i.e. all zeros.
func checkStamp(page core.PageID, version uint64, buf []byte) error {
	if version == 0 {
		for i, b := range buf {
			if b != 0 {
				return fmt.Errorf("page %d: unwritten page has nonzero byte at %d", page, i)
			}
		}
		return nil
	}
	want := make([]byte, len(buf))
	fillStamp(page, version, want)
	for i := range buf {
		if buf[i] != want[i] {
			return fmt.Errorf("page %d: version %d image differs at byte %d (got %#x want %#x; header page=%d version=%d)",
				page, version, i, buf[i], want[i],
				binary.LittleEndian.Uint64(buf[0:8]), binary.LittleEndian.Uint64(buf[8:16]))
		}
	}
	return nil
}

// Stream is one client's deterministic operation sequence plus its oracle:
// the last version this client wrote to each of its pages. A Stream is
// driven by exactly one goroutine at a time.
type Stream struct {
	// Client is the logical client id (also the predictor PID).
	Client int

	cfg      Config
	rng      *sim.RNG
	versions []uint64 // oracle: last written version per own page
	nextSeq  int64    // write cursor through the own range
	writes   int64    // total writes so far (version source)
	done     int      // ops executed
	buf      []byte
}

// NewStream builds client id's stream for cfg.
func NewStream(id int, cfg Config) *Stream {
	cfg = cfg.withDefaults()
	return &Stream{
		Client:   id,
		cfg:      cfg,
		rng:      sim.NewRNG(cfg.Seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15),
		versions: make([]uint64, cfg.PagesPerClient),
		buf:      make([]byte, remote.PageSize),
	}
}

// Done reports whether the stream has executed all its operations.
func (s *Stream) Done() bool { return s.done >= s.cfg.OpsPerClient }

// Versions exposes the oracle: the last version written per own page
// (index = page offset within the client's range, 0 = never written). Read
// it only after the stream's driver finished.
func (s *Stream) Versions() []uint64 { return s.versions }

// base is the first page of the client's own range.
func (s *Stream) base() int64 { return int64(s.Client) * s.cfg.PagesPerClient }

// Step executes the stream's next operation against io: a stamped write of
// the next own page (~50%), a verified read-your-writes read of a random
// own page (~30%), or a cross-client read of any page, checked for image
// consistency (~20%). Every operation touches exactly one page,
// page-aligned. It reports an error on I/O failure or a verification
// violation.
func (s *Stream) Step(io IO) error {
	if s.Done() {
		return nil
	}
	s.done++
	r := s.rng.Float64()
	switch {
	case r < 0.5:
		// Write the next own page (round-robin through the range) with a
		// fresh stamp. Versions are globally unique per stream, so a stale
		// read can never alias a fresh one.
		slot := s.nextSeq % s.cfg.PagesPerClient
		s.nextSeq++
		s.writes++
		version := uint64(s.writes)
		page := core.PageID(s.base() + slot)
		fillStamp(page, version, s.buf)
		if _, err := io.WriteAt(s.buf, int64(page)*remote.PageSize); err != nil {
			return fmt.Errorf("client %d: write page %d: %w", s.Client, page, err)
		}
		s.versions[slot] = version
	case r < 0.8:
		// Read-your-writes: a random own page must carry exactly the last
		// version this client wrote (or zeros when never written).
		slot := s.rng.Int63n(s.cfg.PagesPerClient)
		page := core.PageID(s.base() + slot)
		if _, err := io.ReadAt(s.buf, int64(page)*remote.PageSize); err != nil {
			return fmt.Errorf("client %d: read own page %d: %w", s.Client, page, err)
		}
		if err := checkStamp(page, s.versions[slot], s.buf); err != nil {
			return fmt.Errorf("client %d: read-your-writes violation: %w", s.Client, err)
		}
	default:
		// Cross-client read: any page in the run's span. The writer's
		// current version is unknowable from here, but the image must be
		// internally consistent — header page id matching and the body
		// matching the header's version (i.e. no torn page).
		page := core.PageID(s.rng.Int63n(s.cfg.Span()))
		if _, err := io.ReadAt(s.buf, int64(page)*remote.PageSize); err != nil {
			return fmt.Errorf("client %d: cross read page %d: %w", s.Client, page, err)
		}
		hdrPage := binary.LittleEndian.Uint64(s.buf[0:8])
		hdrVersion := binary.LittleEndian.Uint64(s.buf[8:16])
		if hdrPage == 0 && hdrVersion == 0 {
			break // never written (or mid-initialization zeros): fine
		}
		if hdrPage != uint64(page) {
			return fmt.Errorf("client %d: cross read page %d returned page %d's image", s.Client, page, hdrPage)
		}
		if err := checkStamp(page, hdrVersion, s.buf); err != nil {
			return fmt.Errorf("client %d: torn page: %w", s.Client, err)
		}
	}
	return nil
}

// Result summarizes a completed run.
type Result struct {
	// Ops is the total operations executed.
	Ops int64
	// Streams holds every client's stream (oracle included) for VerifyFinal.
	Streams []*Stream
}

// Drive runs cfg with real concurrency: Goroutines workers share mem,
// worker w driving the streams of clients {c : c mod Goroutines == w}
// round-robin through per-client handles. It returns after every stream
// finished (or the first error). The interleaving is nondeterministic; the
// per-client oracles are not.
func Drive(mem *runtime.Memory, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	streams := make([]*Stream, cfg.Clients)
	for i := range streams {
		streams[i] = NewStream(i, cfg)
	}
	workers := cfg.Goroutines
	if workers > cfg.Clients {
		workers = cfg.Clients
	}
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []*Stream
			var ios []*runtime.Client
			for c := w; c < cfg.Clients; c += workers {
				mine = append(mine, streams[c])
				ios = append(ios, mem.Client(c))
			}
			for {
				active := false
				for i, s := range mine {
					if s.Done() {
						continue
					}
					active = true
					if err := s.Step(ios[i]); err != nil {
						errs <- err
						return
					}
				}
				if !active {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	res := Result{Ops: int64(cfg.Clients) * int64(cfg.OpsPerClient), Streams: streams}
	return res, <-errs
}

// DriveTimed runs Drive and reports the wall-clock duration of the run —
// the real-goroutine throughput measurement mode behind the concurrency
// figure's measured block. Unlike everything else in this package the
// duration is wall time, not virtual time: it depends on the machine, the
// scheduler and GOMAXPROCS, and is NOT deterministic across runs. Keep it
// out of anything gated on byte-identical output (the figure renders it
// under a strippable "  measured" prefix).
func DriveTimed(mem *runtime.Memory, cfg Config) (Result, time.Duration, error) {
	start := time.Now()
	res, err := Drive(mem, cfg)
	return res, time.Since(start), err
}

// Sequential runs cfg on the calling goroutine: the same per-client
// streams, interleaved by a seeded scheduler (a deterministic stand-in for
// thread scheduling), every read verified as it happens. A run is a pure
// function of (mem's options, cfg) — rerun with the same seed to replay a
// failure exactly.
func Sequential(mem *runtime.Memory, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res, _, err := sequential(mem, cfg, nil)
	return res, err
}

// sequential is Sequential with an optional per-op observer (Measure's
// recording hook), called after each Step with the acting handle.
func sequential(mem *runtime.Memory, cfg Config, observe func(*runtime.Client)) (Result, int64, error) {
	streams := make([]*Stream, cfg.Clients)
	ios := make([]*runtime.Client, cfg.Clients)
	for i := range streams {
		streams[i] = NewStream(i, cfg)
		ios[i] = mem.Client(i)
	}
	if cfg.OpsPerClient <= 0 {
		return Result{Streams: streams}, 0, nil
	}
	sched := sim.NewRNG(cfg.Seed ^ 0xC0FFEE)
	remaining := cfg.Clients
	var ops int64
	for remaining > 0 {
		c := sched.Intn(cfg.Clients)
		s := streams[c]
		if s.Done() {
			continue
		}
		if err := s.Step(ios[c]); err != nil {
			return Result{Ops: ops, Streams: streams}, ops, err
		}
		ops++
		if s.Done() {
			remaining--
		}
		if observe != nil {
			observe(ios[c])
		}
	}
	return Result{Ops: ops, Streams: streams}, ops, nil
}

// VerifyFinal checks the final image against the sequential oracle: after
// the run (and a Flush), every page of every client's range must hold
// exactly the last version its owning stream wrote — the "no acked write
// lost, no stale image resurrected" gate. Reads go through mem.ReadAt.
func VerifyFinal(mem *runtime.Memory, cfg Config, streams []*Stream) error {
	cfg = cfg.withDefaults()
	buf := make([]byte, remote.PageSize)
	for _, s := range streams {
		for slot := int64(0); slot < cfg.PagesPerClient; slot++ {
			page := core.PageID(s.base() + slot)
			if _, err := mem.ReadAt(buf, int64(page)*remote.PageSize); err != nil {
				return fmt.Errorf("final verify: read page %d: %w", page, err)
			}
			if err := checkStamp(page, s.versions[slot], buf); err != nil {
				return fmt.Errorf("final verify: client %d: %w", s.Client, err)
			}
		}
	}
	return nil
}
