package experiments

import (
	"testing"
)

// TestZtierTierWins pins the headline acceptance criterion: with the tier
// enabled at equal RAM, at least one application workload shows a strictly
// higher hit ratio than the tier-off run — and every tier cell that hit the
// tier realized a compression ratio above 1 (the pages are designed
// semi-compressible).
func TestZtierTierWins(t *testing.T) {
	r := Ztier(Small, 42)
	wins := 0
	for _, app := range ztierApps {
		off, ok1 := r.Cell(app, "off")
		tier, ok2 := r.Cell(app, "tier")
		if !ok1 || !ok2 {
			t.Fatalf("missing cells for %s", app)
		}
		if off.ZtierHits != 0 || off.Ratio != 0 {
			t.Fatalf("%s: tier-off cell reports tier activity: %+v", app, off)
		}
		if tier.HitRatio > off.HitRatio {
			wins++
		}
		if tier.ZtierHits > 0 && tier.Ratio <= 1 {
			t.Fatalf("%s: tier hit %d times at ratio %.2f — compression never paid",
				app, tier.ZtierHits, tier.Ratio)
		}
	}
	if wins == 0 {
		t.Fatalf("no app improved its hit ratio with the tier on at equal RAM:\n%s", r)
	}
}

// TestZtierWireCompressionObserved checks the on-wire leg: at least one
// tier cell must have moved compressed batched frames and saved bytes.
func TestZtierWireCompressionObserved(t *testing.T) {
	r := Ztier(Small, 42)
	for _, app := range ztierApps {
		if c, _ := r.Cell(app, "tier"); c.WireSaved > 0 {
			return
		}
	}
	t.Fatalf("no tier cell observed on-wire compression savings:\n%s", r)
}
