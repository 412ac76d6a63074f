package prefetch

// GHB is a Global History Buffer prefetcher in the delta-correlation (G/DC)
// style of Nesbit & Smith [HPCA'04], the "GHB PC" row of the paper's
// Table 1, adapted to the paging setting (no program counter: the index is
// the pair of the two most recent fault deltas).
//
// A circular global history buffer holds the last N fault deltas. On a
// miss, the last two deltas form a correlation key; the most recent earlier
// occurrence of that key is located through an index table, and the deltas
// that followed it are replayed from the current page as predictions.
//
// Strengths and weaknesses match Table 1: it captures recurring *irregular*
// delta sequences that stride/read-ahead cannot (temporal locality ✓), but
// costs more memory (buffer + index) and more work per fault than Leap's
// O(1)-space majority vote, and in the kernel's PC-less setting its keys
// alias heavily across phases and processes.
type GHB struct {
	maxDepth int // configured prediction-depth ceiling
	depth    int // current adaptive prediction depth per miss

	// outstanding counts predictions issued since the last depth
	// adaptation; hits holds per-client consumed-prefetch feedback. Depth
	// only adapts once a window is actually out (outstanding > 0), so a
	// cold buffer neither grows nor decays.
	outstanding int
	hits        hitCounts

	buf  []int64 // circular delta history
	link []int   // per-entry pointer to the previous occurrence of its key
	gen  []int64 // generation stamp per slot, to invalidate stale links
	head int     // next write position
	n    int     // valid entries
	tick int64   // monotone insertion counter

	// index maps a delta-pair key to the buffer position of its most
	// recent occurrence (and that occurrence's generation).
	index map[[2]int64]ghbRef

	lastAddr  PageID
	hasLast   bool
	prevDelta int64
	hasPrev   bool
}

// ghbBufferSize bounds the global history (deltas retained).
const ghbBufferSize = 256

// ghbRef locates a buffer entry at a specific generation; if the slot has
// been overwritten since (generation mismatch), the reference is stale.
type ghbRef struct {
	pos int
	gen int64
}

// NewGHB returns a GHB prefetcher predicting up to depth pages per miss.
// The replay depth adapts between 1 and depth on per-client prefetch-hit
// feedback: a consumed window doubles it, an unconsumed one halves it.
func NewGHB(depth int) *GHB {
	if depth < 1 {
		depth = 1
	}
	return &GHB{
		maxDepth: depth,
		depth:    depth,
		buf:      make([]int64, ghbBufferSize),
		link:     make([]int, ghbBufferSize),
		gen:      make([]int64, ghbBufferSize),
		index:    make(map[[2]int64]ghbRef),
	}
}

// Name implements Prefetcher.
func (p *GHB) Name() string { return "ghb" }

// push appends a delta to the history buffer and returns its position.
func (p *GHB) push(d int64) int {
	pos := p.head
	p.buf[pos] = d
	p.tick++
	p.gen[pos] = p.tick
	p.link[pos] = -1
	p.head = (p.head + 1) % len(p.buf)
	if p.n < len(p.buf) {
		p.n++
	}
	return pos
}

// live reports whether ref still refers to the entry it indexed.
func (p *GHB) live(ref ghbRef) bool {
	return ref.pos >= 0 && p.gen[ref.pos] == ref.gen
}

// OnAccess implements Prefetcher.
func (p *GHB) OnAccess(pid PID, page PageID, miss bool, dst []PageID) []PageID {
	if !p.hasLast {
		p.lastAddr, p.hasLast = page, true
		return dst
	}
	delta := int64(page) - int64(p.lastAddr)
	p.lastAddr = page

	var key [2]int64
	haveKey := false
	if p.hasPrev {
		key = [2]int64{p.prevDelta, delta}
		haveKey = true
	}
	p.prevDelta, p.hasPrev = delta, true

	pos := p.push(delta)
	if !haveKey {
		return dst
	}
	// Chain this occurrence to the previous one of the same key, then
	// re-index.
	prior, seen := p.index[key]
	if seen && p.live(prior) {
		p.link[pos] = prior.pos
	}
	p.index[key] = ghbRef{pos: pos, gen: p.gen[pos]}

	if !miss || !seen || !p.live(prior) {
		return dst
	}

	// Adapt the replay depth to the faulting client's feedback on the last
	// issued window: consumed doubles, ignored halves. Only adapts when a
	// window is actually outstanding, so teaching a cold buffer leaves the
	// depth untouched.
	if p.outstanding > 0 {
		if p.hits.take(pid) > 0 {
			p.depth *= 2
			if p.depth > p.maxDepth {
				p.depth = p.maxDepth
			}
		} else if p.depth > 1 {
			p.depth /= 2
		}
		p.outstanding = 0
	}

	// Walk the occurrence chain (newest first) until one has forward room
	// to replay from — for pure strides the most recent occurrence is
	// adjacent to the present and yields nothing; an older one does.
	cand := prior.pos
	for hops := 0; hops < 4 && cand >= 0; hops++ {
		before := len(dst)
		cur := int64(page)
		walk := (cand + 1) % len(p.buf)
		for k := 0; k < p.depth; k++ {
			if walk == pos { // caught up to the present
				break
			}
			cur += p.buf[walk]
			if cur >= 0 {
				dst = append(dst, PageID(cur))
			}
			walk = (walk + 1) % len(p.buf)
		}
		if len(dst) > before {
			p.outstanding += len(dst) - before
			return dst
		}
		next := p.link[cand]
		if next == cand {
			break
		}
		cand = next
	}
	return dst
}

// OnPrefetchHit implements Prefetcher: classic GHB has no hit feedback,
// but the paging setting supplies it for free, and without it the replay
// depth cannot adapt. Credit goes to the consuming client.
func (p *GHB) OnPrefetchHit(pid PID) { p.hits.note(pid) }

// Reset implements Prefetcher.
func (p *GHB) Reset() {
	*p = *NewGHB(p.maxDepth)
}
