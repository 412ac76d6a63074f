package experiments

import (
	"strings"
	"testing"
)

// TestScalingThroughputMonotonicInDepth asserts the acceptance criterion:
// at every fixed agent count, throughput is monotonically non-decreasing
// from queue depth 1 through 8 (the latency models are σ=0, so this is a
// structural property, not a statistical one).
func TestScalingThroughputMonotonicInDepth(t *testing.T) {
	r := Scaling(Small, 42)
	if len(r.Rows) != len(scalingAgents)*len(scalingDepths) {
		t.Fatalf("sweep has %d rows", len(r.Rows))
	}
	for _, agents := range scalingAgents {
		prev := -1.0
		for _, depth := range scalingDepths {
			row, ok := r.Row(agents, depth)
			if !ok {
				t.Fatalf("missing grid point (%d, %d)", agents, depth)
			}
			if row.OpsPerSec < prev {
				t.Fatalf("agents=%d: throughput fell from depth %d: %.1f < %.1f\n%s",
					agents, depth, row.OpsPerSec, prev, r)
			}
			prev = row.OpsPerSec
		}
		if gain := r.DepthGain(agents); gain < 1.5 {
			t.Fatalf("agents=%d: depth amortization only %.2f× — batching is not paying", agents, gain)
		}
	}
}

// TestScalingBatchingObserved: deeper queues must actually produce fatter
// doorbells, and the single-op grid point must stay strictly unbatched.
func TestScalingBatchingObserved(t *testing.T) {
	r := Scaling(Small, 42)
	for _, agents := range scalingAgents {
		d1, _ := r.Row(agents, 1)
		d8, _ := r.Row(agents, 8)
		if d1.PagesPerDB != 1.0 {
			t.Fatalf("agents=%d depth=1 packed %f pages per doorbell, want exactly 1", agents, d1.PagesPerDB)
		}
		if d8.PagesPerDB <= 1.5 {
			t.Fatalf("agents=%d depth=8 packed only %f pages per doorbell", agents, d8.PagesPerDB)
		}
	}
	out := r.String()
	for _, want := range []string{"agents", "queue-depth amortization", "doorbells"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered figure missing %q:\n%s", want, out)
		}
	}
}
