package prefetch

// Stride is the classic stride prefetcher [Baer & Chen '91] adapted to the
// paging setting, matching the paper's baseline description: "brings pages
// following a stride pattern relative to the current page upon a cache
// miss; the aggressiveness depends on the accuracy of the past prefetch."
//
// With no program counter visible to the swap path, the stride is the
// delta between the last two *misses* of the global stream — a hit between
// two misses is feedback, not a new stride sample, so it must not redefine
// the stride the next miss extrapolates from. That still makes the
// predictor eager and error-prone on irregular streams — any two unrelated
// misses define a "stride" — which is exactly why the paper's Figure 9/10
// show it with the worst pollution, coverage, and completion time. Depth
// adapts to prefetch-hit feedback per client: it doubles when the faulting
// client consumed the previous window and halves when it did not (the
// depth itself stays global, like Linux's one swap path).
type Stride struct {
	maxDepth int

	lastAddr PageID
	hasLast  bool
	stride   int64

	depth int
	hits  hitCounts
}

// NewStride returns a stride prefetcher with the given maximum depth (the
// evaluation uses 8).
func NewStride(maxDepth int) *Stride {
	if maxDepth < 1 {
		maxDepth = 1
	}
	return &Stride{maxDepth: maxDepth, depth: 1}
}

// Name implements Prefetcher.
func (p *Stride) Name() string { return "stride" }

// OnAccess implements Prefetcher. Stride state advances only on misses: a
// prefetch-cache hit between two misses feeds depth adaptation through
// OnPrefetchHit but must not silently redefine the stride.
func (p *Stride) OnAccess(pid PID, page PageID, miss bool, dst []PageID) []PageID {
	if !miss {
		return dst
	}
	if !p.hasLast {
		p.lastAddr, p.hasLast = page, true
		return dst
	}
	s := int64(page) - int64(p.lastAddr)
	p.lastAddr = page
	p.stride = s
	if s == 0 {
		return dst
	}

	// Adapt depth to the faulting client's feedback since its last issue.
	if p.hits.take(pid) > 0 {
		p.depth *= 2
		if p.depth > p.maxDepth {
			p.depth = p.maxDepth
		}
	} else if p.depth > 1 {
		p.depth /= 2
	}

	for k := 1; k <= p.depth; k++ {
		c := page + PageID(int64(k)*p.stride)
		if c < 0 {
			break
		}
		dst = append(dst, c)
	}
	return dst
}

// OnPrefetchHit implements Prefetcher: the consuming client gets the
// credit, so interleaved tenants cannot grow each other's depth.
func (p *Stride) OnPrefetchHit(pid PID) { p.hits.note(pid) }

// Reset implements Prefetcher.
func (p *Stride) Reset() {
	*p = Stride{maxDepth: p.maxDepth, depth: 1}
}
