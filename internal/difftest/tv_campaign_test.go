package difftest

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/verify"
)

// TestTVCampaign is the translation validator's false-alarm acceptance
// gate: 200 generator seeds, each compiled across the full 12-cell machine
// × level grid with TV enabled, must produce zero rejections. TV runs
// entirely at compile time, so the campaign skips execution and the
// behavioural oracle — TestOracleSmoke and the fuzz targets cover those —
// and parallelizes seeds across GOMAXPROCS workers.
func TestTVCampaign(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 20
	}
	var (
		next  int64 = 1
		mu    sync.Mutex
		wg    sync.WaitGroup
		cells = len(machine.All()) * len(pipeline.AllLevels())
	)
	take := func() (int64, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next > seeds {
			return 0, false
		}
		s := next
		next++
		return s, true
	}
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s, ok := take()
				if !ok {
					return
				}
				src := Generate(s)
				for _, m := range machine.All() {
					for _, lv := range pipeline.AllLevels() {
						prog, err := mcc.Compile(src)
						if err != nil {
							t.Errorf("seed %d: %v", s, err)
							return
						}
						st := pipeline.Optimize(prog, pipeline.Config{
							Machine: m, Level: lv, Spec: pipeline.Spec{TV: true},
						})
						for _, vi := range st.Verify {
							t.Errorf("seed %d %s/%s: false alarm: %s", s, m.Name, lv, vi.String())
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("campaign: %d seeds × %d cells, zero TV rejections", seeds, cells)
}

// TestOracleTVVerdictKind pins the oracle-side plumbing: a translation
// rule maps to the VTranslation verdict kind, and a TV-enabled oracle run
// on a clean program stays green.
func TestOracleTVVerdictKind(t *testing.T) {
	if got := kindForRule(verify.RuleTranslation); got != VTranslation {
		t.Errorf("kindForRule(RuleTranslation) = %q, want %q", got, VTranslation)
	}
	v := Check(Generate(1), Options{
		Seed: 1, Spec: pipeline.Spec{TV: true},
		Machines: []*machine.Machine{machine.M68020},
		Levels:   []pipeline.Level{pipeline.Jumps, pipeline.Dups},
	})
	if v.Failed() {
		t.Fatalf("clean program failed under TV: %v", v.Violations)
	}
}
