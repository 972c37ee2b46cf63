package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/difftest"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
)

// testBaseline returns a structurally valid baseline for serialization
// tests (no measurement).
func testBaseline() *Baseline {
	return &Baseline{
		Schema:  BaselineSchema,
		Machine: "68020",
		Suite: []SuiteResult{
			{Level: "SIMPLE", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 50, RTLs: 1000, RTLsPerSec: 1e10},
			{Level: "LOOPS", NsPerOp: 110, AllocsPerOp: 5, BytesPerOp: 50, RTLs: 1000, RTLsPerSec: 9e9},
			{Level: "JUMPS", NsPerOp: 120, AllocsPerOp: 5, BytesPerOp: 50, RTLs: 1000, RTLsPerSec: 8e9},
			{Level: "DUPS", NsPerOp: 125, AllocsPerOp: 5, BytesPerOp: 50, RTLs: 1000, RTLsPerSec: 7e9},
		},
		Encoded: testEncoded(),
	}
}

// testEncoded returns a structurally valid encoded section covering the
// whole machine × level registry grid.
func testEncoded() []EncodedResult {
	var out []EncodedResult
	for _, m := range machine.All() {
		for _, lv := range pipeline.AllLevels() {
			er := EncodedResult{Machine: m.Name, Level: lv.String(), CodeBytes: 1000}
			if m.Encoder != nil {
				er.ShortJumps, er.NearJumps = 40, 2
			}
			out = append(out, er)
		}
	}
	return out
}

func TestBaselineRoundTrip(t *testing.T) {
	bl := testBaseline()
	if err := bl.Validate(); err != nil {
		t.Fatalf("valid baseline rejected: %v", err)
	}
	var buf bytes.Buffer
	if err := bl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_baseline.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, bl) {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

func TestBaselineValidateRejects(t *testing.T) {
	cases := map[string]func(*Baseline){
		"bad schema":      func(b *Baseline) { b.Schema = 99 },
		"no machine":      func(b *Baseline) { b.Machine = "" },
		"missing level":   func(b *Baseline) { b.Suite = b.Suite[:2] },
		"zero ns":         func(b *Baseline) { b.Suite[0].NsPerOp = 0 },
		"negative rtls/s": func(b *Baseline) { b.Suite[1].RTLsPerSec = -1 },
		"no encoded":      func(b *Baseline) { b.Encoded = nil },
		"missing cell":    func(b *Baseline) { b.Encoded = b.Encoded[1:] },
		"zero code bytes": func(b *Baseline) { b.Encoded[0].CodeBytes = 0 },
		"no x86 jumps": func(b *Baseline) {
			for i := range b.Encoded {
				b.Encoded[i].ShortJumps, b.Encoded[i].NearJumps = 0, 0
			}
		},
		"zero allocs": func(b *Baseline) { b.Suite[0].AllocsPerOp = 0 },
		"zero bytes":  func(b *Baseline) { b.Suite[2].BytesPerOp = 0 },
	}
	for name, mutate := range cases {
		bl := testBaseline()
		mutate(bl)
		if err := bl.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken baseline", name)
		}
	}
}

func TestLoadBaselineErrors(t *testing.T) {
	if _, err := LoadBaseline(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil {
		t.Error("unparsable file accepted")
	}
}

// TestStressSourceCompiles pins the stress generator's output to stay
// within the mini-C subset and produce the single-large-function shape the
// step-1 benchmarks rely on, and checks the suite RTL counter is sane.
func TestStressSourceCompiles(t *testing.T) {
	prog, err := mcc.Compile(difftest.GenerateStress(40))
	if err != nil {
		t.Fatalf("stress source no longer compiles: %v", err)
	}
	if len(prog.Funcs) != 1 {
		t.Fatalf("stress program has %d functions, want 1", len(prog.Funcs))
	}
	if blocks := len(prog.Funcs[0].Blocks); blocks < 80 {
		t.Errorf("stress function has only %d blocks for 40 states", blocks)
	}
	rtls, err := SuiteRTLs()
	if err != nil {
		t.Fatal(err)
	}
	if rtls <= 0 {
		t.Fatal("empty suite")
	}
}

// TestEncodedMatchesBaseline is the encoded section's enforcer: a fresh
// layout of the Table-3 suite must reproduce the committed
// BENCH_baseline.json cell for cell. The section is pure layout, with no
// clock in it, so a mismatch means the encoder or the pipeline changed;
// when that is intended, regenerate the file with cmd/bench.
func TestEncodedMatchesBaseline(t *testing.T) {
	bl, err := LoadBaseline(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureEncoded()
	if err != nil {
		t.Fatal(err)
	}
	if len(bl.Encoded) != len(got) {
		t.Fatalf("committed encoded section has %d cells, a fresh layout %d", len(bl.Encoded), len(got))
	}
	for i := range got {
		if got[i] != bl.Encoded[i] {
			t.Fatalf("encoded cell %s/%s: fresh %+v, committed %+v", got[i].Machine, got[i].Level, got[i], bl.Encoded[i])
		}
	}
}
