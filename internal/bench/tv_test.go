package bench

import (
	"testing"
	"time"

	"repro/internal/mcc"
	"repro/internal/pipeline"
)

// optimizeSuite compiles and optimizes the full Table-3 suite over every
// machine × level cell, returns the total optimize wall time, and fails
// the test on any verifier violation.
func optimizeSuite(t *testing.T, tv bool) time.Duration {
	t.Helper()
	var total time.Duration
	for _, p := range Programs() {
		for _, m := range machines {
			for _, lv := range levels {
				cell, err := mcc.Compile(p.Source)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				start := time.Now()
				st := pipeline.Optimize(cell, pipeline.Config{Machine: m, Level: lv, Spec: pipeline.Spec{TV: tv}})
				total += time.Since(start)
				for _, vi := range st.Verify {
					t.Errorf("%s %s/%s: %s", p.Name, m.Name, lv, vi.String())
				}
			}
		}
	}
	return total
}

// TestSuiteTVClean is the Table-3 acceptance gate: the full suite × 4
// levels × 3 machines validates with zero TV rejections.
func TestSuiteTVClean(t *testing.T) {
	optimizeSuite(t, true)
}

// TestSuiteTVOverhead is the -tv cost smoke check: validating every
// certificate across the whole suite must stay under 2× the plain compile
// time. The bound has a lot of headroom — TV's cost is proportional to the
// handful of duplications per function, not to program size — so a trip
// here means the validator grew a real hot spot, not that a shared runner
// was noisy.
func TestSuiteTVOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing smoke, skipped in short mode")
	}
	base := optimizeSuite(t, false)
	withTV := optimizeSuite(t, true)
	ratio := float64(withTV) / float64(base)
	t.Logf("suite optimize: %s plain, %s with TV (%.2fx)", base, withTV, ratio)
	if ratio >= 2.0 {
		t.Errorf("-tv suite overhead %.2fx, want < 2x", ratio)
	}
}
