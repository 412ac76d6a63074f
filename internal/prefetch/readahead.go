package prefetch

// ReadAhead models Linux's swap cluster read-ahead (mm/swap_state.c,
// swapin_nr_pages in the v4.x line): on every major fault it reads an
// aligned block of pages containing the faulted page. The block size
// adapts between 2 and the maximum (2^page_cluster = 8 by default) using
// prefetch-hit feedback and the last two fault addresses: it doubles after
// hits or consecutive faults, and halves otherwise. It never turns off
// completely — the always-read-a-cluster behaviour behind the paper's
// cache-pollution critique (§2.3) and Figure 9a's high cache-add count.
//
// Like Linux, it observes the global fault stream: interleaved processes
// both trigger and break its sequentiality test. Hit feedback, however, is
// attributed to the consuming client (per PID): one tenant's consumed
// window must not double the window another tenant's fault sees.
type ReadAhead struct {
	maxWindow int

	lastAddr PageID
	hasLast  bool
	window   int
	hits     hitCounts
}

// NewReadAhead returns a read-ahead prefetcher with the given maximum
// window (Linux's default swap cluster is 8 pages; the paper evaluates
// with 8).
func NewReadAhead(maxWindow int) *ReadAhead {
	if maxWindow < 2 {
		maxWindow = 2
	}
	return &ReadAhead{maxWindow: maxWindow, window: maxWindow}
}

// Name implements Prefetcher. The sequentiality test tracks every swap-in;
// block reads are issued on misses.
func (p *ReadAhead) Name() string { return "readahead" }

// OnAccess implements Prefetcher.
func (p *ReadAhead) OnAccess(pid PID, page PageID, miss bool, dst []PageID) []PageID {
	sequential := p.hasLast && (page == p.lastAddr+1 || page == p.lastAddr)
	p.lastAddr, p.hasLast = page, true
	if !miss {
		return dst
	}

	// The §2.3 critique in action: the window decision hangs on the last
	// two faults. A consecutive pair with hits doubles the window; a
	// consecutive pair alone holds it; any non-consecutive pair halves it —
	// so a single interruption (noise, another process, a stride) collapses
	// the window even mid-scan. The hits consulted are the faulting
	// client's own.
	hit := p.hits.take(pid) > 0
	switch {
	case sequential && hit:
		p.window *= 2
	case sequential:
		// Hold.
	default:
		p.window /= 2
	}
	if p.window > p.maxWindow {
		p.window = p.maxWindow
	}
	if p.window < 2 {
		p.window = 2 // the cluster read never fully stops
	}

	// Aligned block of `window` pages containing the faulted page.
	start := page - page%PageID(p.window)
	for c := start; c < start+PageID(p.window); c++ {
		if c != page && c >= 0 {
			dst = append(dst, c)
		}
	}
	return dst
}

// OnPrefetchHit implements Prefetcher: the consuming client gets the
// credit, so interleaved tenants cannot grow each other's window.
func (p *ReadAhead) OnPrefetchHit(pid PID) { p.hits.note(pid) }

// Reset implements Prefetcher.
func (p *ReadAhead) Reset() {
	*p = ReadAhead{maxWindow: p.maxWindow, window: p.maxWindow}
}
