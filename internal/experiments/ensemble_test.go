package experiments

import (
	"testing"
)

// ensembleGateTolerance is the hit-ratio slack the selector is allowed
// against the best fixed policy: convergence noise, worth a handful of
// accesses per cell. A wrong selection costs whole percentage points (e.g.
// next-N-line on memcached gives up ~8 points), so the bound still has
// teeth — the tolerance is an order of magnitude below any real
// mis-selection.
const ensembleGateTolerance = 0.002

// TestEnsembleBeatsFixedPolicies pins the headline acceptance criterion: on
// every application workload the online selector's hit ratio reaches the
// best fixed policy (within convergence tolerance), clearly beats the mean
// of the zoo, and leaves the worst arm far behind — picking one fixed
// policy for all apps is strictly dominated.
func TestEnsembleBeatsFixedPolicies(t *testing.T) {
	r := Ensemble(Small, 42)
	for _, app := range ensembleApps {
		ens, ok := r.Cell(app, "ensemble")
		if !ok {
			t.Fatalf("missing ensemble cell for %s", app)
		}
		best, worst, sum := -1.0, 2.0, 0.0
		bestName := ""
		for _, policy := range EnsemblePolicies[1:] {
			c, ok := r.Cell(app, policy)
			if !ok {
				t.Fatalf("missing %s cell for %s", policy, app)
			}
			if c.Switches != 0 || c.Final != "-" {
				t.Fatalf("%s/%s: fixed policy reports selector activity: %+v", app, policy, c)
			}
			if c.HitRatio > best {
				best, bestName = c.HitRatio, policy
			}
			if c.HitRatio < worst {
				worst = c.HitRatio
			}
			sum += c.HitRatio
		}
		mean := sum / float64(len(EnsemblePolicies)-1)
		if ens.HitRatio+ensembleGateTolerance < best {
			t.Errorf("%s: ensemble hit %.4f below best fixed %.4f (%s) beyond tolerance",
				app, ens.HitRatio, best, bestName)
		}
		if ens.HitRatio <= mean {
			t.Errorf("%s: ensemble hit %.4f does not beat the zoo mean %.4f", app, ens.HitRatio, mean)
		}
		if ens.HitRatio <= worst {
			t.Errorf("%s: ensemble hit %.4f does not beat the worst arm %.4f", app, ens.HitRatio, worst)
		}
		if ens.Final == "-" || ens.Final == "" {
			t.Errorf("%s: ensemble cell reports no final selection", app)
		}
	}
	if t.Failed() {
		t.Logf("full table:\n%s", Ensemble(Small, 42))
	}
}
