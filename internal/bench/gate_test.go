package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeBaseline builds a structurally valid baseline without measuring.
// Its allocation count is a multiple of 16, so the gate's 1.4375 cap is
// exact.
func fakeBaseline(ns int64) *Baseline {
	bl := &Baseline{Schema: BaselineSchema, Machine: "68020"}
	for _, lv := range []string{"SIMPLE", "LOOPS", "JUMPS", "DUPS"} {
		bl.Suite = append(bl.Suite, SuiteResult{
			Level: lv, NsPerOp: ns, AllocsPerOp: 1600, BytesPerOp: 1,
			RTLs: 1000, RTLsPerSec: float64(1000) * 1e9 / float64(ns),
		})
	}
	bl.Encoded = testEncoded()
	return bl
}

// gateFixture returns a committed baseline and a fresh measurement that
// exactly matches it.
func gateFixture() (*Baseline, []SuiteResult) {
	bl := fakeBaseline(100)
	fresh := append([]SuiteResult(nil), bl.Suite...)
	return bl, fresh
}

func TestGatePasses(t *testing.T) {
	bl, fresh := gateFixture()
	rows, err := bl.Gate(fresh)
	if err != nil {
		t.Fatalf("identical measurements failed the gate: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if !r.Pass || !r.ThroughputOK || !r.AllocsOK {
			t.Errorf("%s: unexpected failure: %+v", r.Level, r)
		}
	}
}

func TestGateCatchesThroughputRegression(t *testing.T) {
	bl, fresh := gateFixture()
	// Drop LOOPS throughput to half the band's floor.
	fresh[1].RTLsPerSec = bl.Suite[1].RTLsPerSec * gateThroughputFactor * 0.5
	rows, err := bl.Gate(fresh)
	if err == nil {
		t.Fatal("halved throughput passed the gate")
	}
	if !strings.Contains(err.Error(), "LOOPS") {
		t.Errorf("failure does not name the level: %v", err)
	}
	if rows[1].Pass || !rows[1].AllocsOK || rows[1].ThroughputOK {
		t.Errorf("wrong verdict split: %+v", rows[1])
	}
	// The other levels still pass.
	if !rows[0].Pass || !rows[2].Pass || !rows[3].Pass {
		t.Errorf("unrelated levels failed: %+v %+v %+v", rows[0], rows[2], rows[3])
	}
}

func TestGateCatchesAllocRegression(t *testing.T) {
	bl, fresh := gateFixture()
	fresh[2].AllocsPerOp = bl.Suite[2].AllocsPerOp * 2
	if _, err := bl.Gate(fresh); err == nil {
		t.Fatal("doubled allocations passed the gate")
	}
}

// TestGateToleranceBand pins the band's edges: a fresh row exactly at
// 0.30× the committed throughput and 1.4375× its allocations passes, and
// one 1% beyond either bound fails.
func TestGateToleranceBand(t *testing.T) {
	bl, fresh := gateFixture()
	base := bl.Suite[0]
	fresh[0].RTLsPerSec = base.RTLsPerSec * 0.30
	fresh[0].AllocsPerOp = base.AllocsPerOp * 23 / 16 // 1.4375×
	rows, err := bl.Gate(fresh)
	if err != nil {
		t.Fatalf("a row on both edges failed: %v", err)
	}
	if rows[0].MinRTLsPerSec != base.RTLsPerSec*0.30 || rows[0].MaxAllocsPerOp != 2300 {
		t.Errorf("band = [%v, %d], want [%v, 2300]", rows[0].MinRTLsPerSec, rows[0].MaxAllocsPerOp, base.RTLsPerSec*0.30)
	}

	slow := append([]SuiteResult(nil), fresh...)
	slow[0].RTLsPerSec *= 0.99
	if rows, err := bl.Gate(slow); err == nil || rows[0].ThroughputOK || !rows[0].AllocsOK {
		t.Fatalf("throughput 1%% under the floor passed: %+v", rows[0])
	}
	heavy := append([]SuiteResult(nil), fresh...)
	heavy[0].AllocsPerOp = heavy[0].AllocsPerOp * 101 / 100
	if rows, err := bl.Gate(heavy); err == nil || rows[0].AllocsOK || !rows[0].ThroughputOK {
		t.Fatalf("allocations 1%% over the cap passed: %+v", rows[0])
	}
}

func TestGateMissingLevel(t *testing.T) {
	bl, fresh := gateFixture()
	if _, err := bl.Gate(fresh[:3]); err == nil {
		t.Fatal("gate accepted measurements missing a level")
	}
}

func TestWriteGateSummary(t *testing.T) {
	bl, fresh := gateFixture()
	fresh[1].RTLsPerSec = 1 // force one failing row
	rows, _ := bl.Gate(fresh)
	var sb strings.Builder
	if err := WriteGateSummary(&sb, rows); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"### Perf gate", "| Level |", "| SIMPLE |", "| LOOPS |", "| JUMPS |", "| DUPS |", "✅", "❌"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary misses %q:\n%s", want, out)
		}
	}
}

// TestLoadBaselineRequiresEncoded pins the validation error for a baseline
// file whose encoded section was dropped: loading must fail and name the
// missing cell rather than silently accepting a partial baseline.
func TestLoadBaselineRequiresEncoded(t *testing.T) {
	bl := fakeBaseline(100)
	bl.Encoded = nil
	path := filepath.Join(t.TempDir(), "noenc.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = LoadBaseline(path)
	if err == nil {
		t.Fatal("baseline without an encoded section accepted")
	}
	if !strings.Contains(err.Error(), "encoded section is missing cell") {
		t.Errorf("unexpected error: %v", err)
	}
}
