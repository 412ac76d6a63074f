package experiments

import (
	"strings"
	"testing"
)

// TestResilienceInvariantsAndShape checks the figure's substance: zero
// violations across all schedules, real failover activity under crashes,
// and a visible fault-tolerance cost relative to baseline.
func TestResilienceInvariantsAndShape(t *testing.T) {
	r := Resilience(Small, 42)
	if len(r.Rows) < 6 {
		t.Fatalf("only %d schedules ran", len(r.Rows))
	}
	if v := r.TotalViolations(); v != 0 {
		t.Fatalf("resilience suite reported %d invariant violations:\n%s", v, r)
	}
	crash, ok := r.Row("crash-restart")
	if !ok {
		t.Fatal("crash-restart row missing")
	}
	if crash.Failovers == 0 || crash.RepairedSlabs == 0 {
		t.Fatalf("crash-restart shows no degraded-mode activity:\n%s", r)
	}
	if len(r.FailoverCDF) == 0 {
		t.Fatal("failover CDF empty")
	}
	base, _ := r.Row("baseline")
	if base.Failovers != 0 || base.Violations != 0 {
		t.Fatalf("baseline schedule is not clean: %+v", base)
	}
	out := r.String()
	for _, want := range []string{"crash-restart", "failover latency CDF", "total violations 0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, out)
		}
	}
}
