package experiments

import (
	"strings"
	"testing"
)

// TestElasticControlImprovesTail checks the figure's substance: the control
// loop must strictly improve the overall and peak p99 over the static
// baseline, actually detect the injected partition, route around it faster
// than riding out the whole window, and exercise the autoscaler.
func TestElasticControlImprovesTail(t *testing.T) {
	r := Elastic(Small, 42)
	st, ctl := r.Static, r.Control

	if st.Ops == 0 || st.Ops != ctl.Ops {
		t.Fatalf("op counts diverge: static=%d control=%d", st.Ops, ctl.Ops)
	}
	if ctl.P99 >= st.P99 {
		t.Fatalf("control p99 %v not strictly below static %v", ctl.P99, st.P99)
	}
	if ctl.PeakP99 >= st.PeakP99 {
		t.Fatalf("control peak-p99 %v not strictly below static %v", ctl.PeakP99, st.PeakP99)
	}
	if ctl.Fails < 1 || ctl.Recovers < 1 {
		t.Fatalf("detector missed the partition: fails=%d recovers=%d", ctl.Fails, ctl.Recovers)
	}
	if ctl.ScaleUps < 1 || ctl.ScaleDowns < 1 {
		t.Fatalf("autoscaler never acted: ups=%d downs=%d", ctl.ScaleUps, ctl.ScaleDowns)
	}
	if ctl.Failover <= 0 || ctl.Failover >= st.Failover {
		t.Fatalf("failover %v not inside (0, %v)", ctl.Failover, st.Failover)
	}
	if ctl.LiveEnd < elasticMinAgents || ctl.LiveEnd > elasticMaxAgents {
		t.Fatalf("live agents %d outside [%d, %d]", ctl.LiveEnd, elasticMinAgents, elasticMaxAgents)
	}

	// The static row must report zero control activity — it has no plane.
	if st.Fails != 0 || st.ScaleUps != 0 || st.ScaleDowns != 0 || st.HotAdds != 0 {
		t.Fatalf("static row reports control actions: %+v", st)
	}
	if !strings.Contains(r.String(), "lower with the control loop") {
		t.Fatalf("rendered figure missing the comparison line:\n%s", r)
	}
}
