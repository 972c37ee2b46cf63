package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeBaseline builds a structurally valid baseline without measuring.
func fakeBaseline(ns int64) *Baseline {
	bl := &Baseline{Schema: BaselineSchema, Machine: "68020"}
	for _, lv := range []string{"SIMPLE", "LOOPS", "JUMPS", "DUPS"} {
		bl.Suite = append(bl.Suite, SuiteResult{
			Level: lv, NsPerOp: ns, AllocsPerOp: 1, BytesPerOp: 1,
			RTLs: 1000, RTLsPerSec: float64(1000) * 1e9 / float64(ns),
		})
	}
	bl.Stress = []StressResult{{States: 10, RTLs: 500, NsPerOp: ns, RTLsPerSec: float64(500) * 1e9 / float64(ns)}}
	bl.Encoded = testEncoded()
	bl.Floors = DeriveFloors(bl.Suite)
	return bl
}

// TestHistoryToleratesLegacySchema: a history file accumulated across CI
// runs carries records from before a schema bump; loading must keep them
// without forcing them through the current schema's validation.
func TestHistoryToleratesLegacySchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	legacy := fakeBaseline(100)
	legacy.Schema = BaselineSchema - 1
	legacy.Floors = nil // schema 2 had no floors section
	// Written raw: AppendHistory itself (correctly) refuses non-current
	// schemas.
	line, err := json.Marshal(HistoryRecord{Time: time.Unix(0, 0).UTC(), Baseline: legacy})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendHistory(path, fakeBaseline(200), time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Baseline.Schema != BaselineSchema-1 {
		t.Fatalf("legacy record lost: %d records", len(recs))
	}
}

func TestHistoryAppendAndLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")

	// Missing file loads as empty history.
	recs, err := LoadHistory(path)
	if err != nil || len(recs) != 0 {
		t.Fatalf("missing file: %v, %d records", err, len(recs))
	}

	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	if err := AppendHistory(path, fakeBaseline(100), t0); err != nil {
		t.Fatal(err)
	}
	if err := AppendHistory(path, fakeBaseline(200), t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	recs, err = LoadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d records, want 2", len(recs))
	}
	if !recs[0].Time.Equal(t0) || recs[0].Baseline.Suite[0].NsPerOp != 100 {
		t.Fatalf("first record: %+v", recs[0])
	}
	if recs[1].Baseline.Suite[0].NsPerOp != 200 {
		t.Fatalf("second record: %+v", recs[1])
	}

	// The file is one JSON object per line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("file has %d lines, want 2", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"time":`) {
			t.Fatalf("unexpected line shape: %s", l)
		}
	}
}

func TestHistoryRejectsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	bad := fakeBaseline(100)
	bad.Schema = 999
	if err := AppendHistory(path, bad, time.Now()); err == nil {
		t.Fatal("appended a baseline with a bogus schema")
	}
	if err := os.WriteFile(path, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHistory(path); err == nil {
		t.Fatal("loaded a corrupt history file")
	}
}
