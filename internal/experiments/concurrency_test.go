package experiments

import (
	goruntime "runtime"
	"strings"
	"testing"
)

// TestConcurrencyThroughputMonotonicInGoroutines asserts the acceptance
// criterion: at queue depth ≥ 2, modeled throughput is monotonically
// non-decreasing from 1 through 4 (and on to 8) goroutines at every client
// count, and multi-goroutine scaling actually pays at the widest cell.
func TestConcurrencyThroughputMonotonicInGoroutines(t *testing.T) {
	r := Concurrency(Small, 42)
	wantRows := len(concurrencyDepths) * len(concurrencyClients) * len(concurrencyGoroutines)
	if len(r.Rows) != wantRows {
		t.Fatalf("sweep has %d rows, want %d", len(r.Rows), wantRows)
	}
	for _, depth := range concurrencyDepths {
		for _, clients := range concurrencyClients {
			prev := -1.0
			for _, g := range concurrencyGoroutines {
				row, ok := r.Row(depth, clients, g)
				if !ok {
					t.Fatalf("missing grid point (%d, %d, %d)", depth, clients, g)
				}
				if row.KopsPerSec < prev {
					t.Fatalf("depth=%d clients=%d: throughput fell at %d goroutines: %.1f < %.1f\n%s",
						depth, clients, g, row.KopsPerSec, prev, r)
				}
				prev = row.KopsPerSec
				if row.SerialFrac <= 0 || row.SerialFrac > 1 {
					t.Fatalf("depth=%d clients=%d: serial fraction %.3f out of range",
						depth, clients, row.SerialFrac)
				}
			}
			if depth >= 2 {
				if gain := r.GoroutineGain(depth, clients); gain < 1.25 {
					t.Fatalf("depth=%d clients=%d: goroutine scaling only %.2f× — overlap is not paying",
						depth, clients, gain)
				}
			}
		}
	}
}

// TestConcurrencyMeasuredScaling checks the measured real-goroutine block:
// structurally always (every sweep point present, positive throughput,
// exact op counts, GOMAXPROCS observed not mutated, rendered and fully
// stripped by StripMeasured), and — only on machines
// with 8+ cores, where the acceptance criterion is meaningful — monotone
// non-decreasing throughput to 8 goroutines with a generous tolerance for
// scheduler noise.
func TestConcurrencyMeasuredScaling(t *testing.T) {
	procsBefore := goruntime.GOMAXPROCS(0)
	r := Concurrency(Small, 42)
	if got := goruntime.GOMAXPROCS(0); got != procsBefore {
		t.Fatalf("figure mutated GOMAXPROCS: %d -> %d", procsBefore, got)
	}
	if len(r.Measured) != len(measuredGoroutines) {
		t.Fatalf("measured block has %d rows, want %d", len(r.Measured), len(measuredGoroutines))
	}
	for i, row := range r.Measured {
		if row.Goroutines != measuredGoroutines[i] {
			t.Fatalf("measured row %d ran %d goroutines, want %d", i, row.Goroutines, measuredGoroutines[i])
		}
		if row.Ops != int64(measuredClients)*(r.MeasuredOps/int64(measuredClients)) {
			t.Fatalf("measured row g=%d executed %d ops, want %d", row.Goroutines, row.Ops,
				int64(measuredClients)*(r.MeasuredOps/int64(measuredClients)))
		}
		if row.KopsPerSec <= 0 || row.Wall <= 0 {
			t.Fatalf("measured row g=%d reports no throughput: %+v", row.Goroutines, row)
		}
	}
	if r.MeasuredProcs != procsBefore || r.MeasuredShards < 8 {
		t.Fatalf("measured block shape off: procs=%d shards=%d", r.MeasuredProcs, r.MeasuredShards)
	}
	// The measured block renders — and StripMeasured removes all of it,
	// which is what lets the figure carry a golden.
	out := r.String()
	if !strings.Contains(out, "\n  measured") {
		t.Fatal("figure output lost the measured real-goroutine block")
	}
	if strings.Contains(StripMeasured(out), "measured") {
		t.Fatal("StripMeasured left measured lines behind")
	}
	if goruntime.NumCPU() < 8 {
		t.Skipf("monotonicity needs 8+ cores, have %d: measured scaling is flat by construction here", goruntime.NumCPU())
	}
	prev := 0.0
	for _, row := range r.Measured {
		// 0.85: wall-clock measurement jitters; the criterion is "monotone
		// to 8 goroutines", not "never a scheduler hiccup".
		if row.KopsPerSec < prev*0.85 {
			t.Errorf("measured throughput fell at %d goroutines: %.1f < %.1f Kops/s\n%s",
				row.Goroutines, row.KopsPerSec, prev, r)
		}
		if row.KopsPerSec > prev {
			prev = row.KopsPerSec
		}
	}
}

// TestConcurrencyIsolationWins pins the §4.1 runtime replay: on the
// interleaved multi-client load, per-client predictors must strictly beat
// one shared predictor on hit ratio.
func TestConcurrencyIsolationWins(t *testing.T) {
	r := Concurrency(Small, 42)
	if r.IsolatedHitRatio <= r.SharedHitRatio {
		t.Fatalf("per-client predictors %.4f not strictly above shared predictor %.4f at %d clients",
			r.IsolatedHitRatio, r.SharedHitRatio, r.IsolationClients)
	}
}
