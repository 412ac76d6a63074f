package main

import (
	"fmt"

	"leap/internal/remote"
	"leap/internal/sim"
	"leap/internal/workload"
)

// pageSize is the runtime's page granularity.
const pageSize = remote.PageSize

// spec is one benchmark workload: the access streams of its clients and the
// runtime configuration they run against.
type spec struct {
	name string
	// pages is the range each client's stream draws from; client i owns
	// pages [i*span(), (i+1)*span()).
	pages int64
	// coldPages extends each client's range with pages that only the cold
	// trickle touches (see coldEvery); 0 disables the trickle.
	coldPages int64
	coldEvery int
	// recSize is the bytes one access reads or writes: an aligned record of
	// a page.
	recSize int
	// writeFrac is the share of accesses that are writes.
	writeFrac float64
	// streams builds client i's page stream over [0, pages).
	streams []func(seed uint64, pages int64) workload.Generator
	tcp     bool
	// ztierBytes is the compressed-tier budget (0: tier off).
	ztierBytes int64
	// cachePages is the local memory budget.
	cachePages int
}

// clients reports the number of client goroutines.
func (s *spec) clients() int { return len(s.streams) }

// span is one client's whole page range, cold pages included.
func (s *spec) span() int64 { return s.pages + s.coldPages }

// recsPerPage reports the records each page holds.
func (s *spec) recsPerPage() int { return pageSize / s.recSize }

func zipfStream(seed uint64, pages int64) workload.Generator {
	return workload.NewZipf(pages, 0.99, seed)
}

// appStream returns a stream that replays a paper application profile
// scaled to the client's page range.
func appStream(profile func() workload.Profile) func(uint64, int64) workload.Generator {
	return func(seed uint64, pages int64) workload.Generator {
		p := profile()
		p.TotalPages = pages
		return workload.NewApp(p, seed)
	}
}

// specs are the benchmark's workloads; BENCHMARK.json says why each is in
// it.
var specs = []*spec{
	{
		// The 3072 hot pages stay resident. The cold trickle gives the
		// fault metrics samples here too (about 0.15% of accesses fault),
		// since every workload reports every end-to-end metric.
		name:       "resident_zipf",
		pages:      1536,
		coldPages:  4096,
		coldEvery:  512,
		recSize:    64,
		writeFrac:  0.10,
		streams:    []func(uint64, int64) workload.Generator{zipfStream, zipfStream},
		cachePages: 4096,
	},
	{
		name:       "app_scan",
		pages:      16384,
		recSize:    256,
		streams:    []func(uint64, int64) workload.Generator{appStream(workload.NumPyProfile), appStream(workload.PowerGraphProfile)},
		cachePages: 4096,
	},
	{
		// At 12288 pages per client about half the accesses fault, and
		// the median access flipped between a resident hit (~1.5 us) and
		// a ztier hit (~20 us) from seed to seed. At 16384 nearly 60%
		// fault and the median is a ztier hit on every seed tried.
		name:       "kv_rw_tcp",
		pages:      16384,
		recSize:    256,
		writeFrac:  0.25,
		streams:    []func(uint64, int64) workload.Generator{appStream(workload.MemcachedProfile), appStream(workload.VoltDBProfile)},
		tcp:        true,
		ztierBytes: 16 << 20,
		cachePages: 4096,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// access is one generated client operation: page is the client-relative
// page, rec the record within it.
type access struct {
	page  uint32
	rec   uint16
	write bool
}

// ringLen is the number of accesses generated per client; a run replays
// the ring from the start when it runs out.
const ringLen = 1 << 20

// inputs are the generated access streams, one per client. They depend
// only on the spec and the seed.
type inputs struct {
	ops [][]access
}

func generate(s *spec, seed uint64) *inputs {
	in := &inputs{ops: make([][]access, s.clients())}
	recs := s.recsPerPage()
	for c := range in.ops {
		cseed := seed*0x9E3779B97F4A7C15 + uint64(c+1)
		gen := s.streams[c](cseed, s.pages)
		rng := sim.NewRNG(cseed ^ 0x5bd1e995)
		ops := make([]access, ringLen)
		for i := range ops {
			pg := int64(gen.Next().Page)
			if s.coldEvery > 0 && rng.Intn(s.coldEvery) == 0 {
				pg = s.pages + rng.Int63n(s.coldPages)
			}
			ops[i] = access{
				page:  uint32(pg),
				rec:   uint16(rng.Intn(recs)),
				write: rng.Float64() < s.writeFrac,
			}
		}
		in.ops[c] = ops
	}
	return in
}

// Record images. Every record of every page has one image per version,
// computed from (seed, page, record, version): the oracle keeps the version
// of the last write to each record and regenerates the expected bytes from
// it. A 64-byte chunk carries noiseBytes pseudo-random bytes followed by a
// run of a fixed per-seed dictionary, which makes page images
// semi-compressible under the ztier codec.

const (
	chunkSize  = 64
	noiseBytes = 5
	dictLen    = 256
)

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// imager fills record images for one seed.
type imager struct {
	seed uint64
	dict [dictLen]byte
}

func newImager(seed uint64) *imager {
	im := &imager{seed: seed}
	for i := 0; i < dictLen; i += 8 {
		v := mix64(seed ^ uint64(i)*0x9E3779B97F4A7C15)
		for j := 0; j < 8; j++ {
			im.dict[i+j] = 'a' + byte(v>>(8*j))%26
		}
	}
	return im
}

// fill writes the image of record rec of global page pg at version ver
// into dst, whose length is the record size.
func (im *imager) fill(dst []byte, pg int64, rec int, ver uint32) {
	key := im.seed ^ uint64(pg)<<20 ^ uint64(rec)<<8 ^ uint64(ver)<<40
	for off := 0; off < len(dst); off += chunkSize {
		h := mix64(key + uint64(off))
		c := dst[off:min(off+chunkSize, len(dst))]
		n := 0
		for w := h; n < noiseBytes && n < len(c); n++ {
			if n%8 == 0 && n > 0 {
				w = mix64(w)
			}
			c[n] = byte(w >> (8 * (n % 8)))
		}
		if n < len(c) {
			start := int(h>>40) % (dictLen - chunkSize)
			copy(c[n:], im.dict[start:])
		}
	}
}

// fillPage writes the version-0 image of every record of page pg.
func (im *imager) fillPage(dst []byte, pg int64, recSize int) {
	for r := 0; r*recSize < len(dst); r++ {
		im.fill(dst[r*recSize:(r+1)*recSize], pg, r, 0)
	}
}
