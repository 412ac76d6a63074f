package experiments

import "testing"

// TestSelfhealControlWins pins the figure's claim: under the same faults,
// the supervised runtime's tail is strictly better than the unsupervised
// one, and the control plane demonstrably walked the whole detector cycle
// (suspect, fail+repair, probation recovery) and replicated hot pages.
func TestSelfhealControlWins(t *testing.T) {
	r := Selfheal(Small, 42)
	if r.Control.P99 >= r.Baseline.P99 {
		t.Errorf("control p99 %v not below baseline %v", r.Control.P99, r.Baseline.P99)
	}
	if r.Control.FaultP99 >= r.Baseline.FaultP99 {
		t.Errorf("control fault-window p99 %v not below baseline %v",
			r.Control.FaultP99, r.Baseline.FaultP99)
	}
	if r.Control.Suspects < 1 || r.Control.Fails < 1 || r.Control.Recovers < 1 {
		t.Errorf("detector cycle incomplete: suspects=%d fails=%d recovers=%d",
			r.Control.Suspects, r.Control.Fails, r.Control.Recovers)
	}
	if r.Control.HotAdds < 1 {
		t.Errorf("no hot-page replicas added (HotAdds=%d)", r.Control.HotAdds)
	}
	// The workload is identical; supervision must not change what the cache
	// sees. (Hit ratio equality is the cheap proxy for that.)
	if r.Control.HitRatio != r.Baseline.HitRatio {
		t.Errorf("hit ratio diverged: control %.4f vs baseline %.4f",
			r.Control.HitRatio, r.Baseline.HitRatio)
	}
	if r.Baseline.Fails != 0 || r.Baseline.Suspects != 0 {
		t.Errorf("baseline row reports control actions: %+v", r.Baseline)
	}
}
