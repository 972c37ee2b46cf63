package bench

import (
	"fmt"
	"io"
)

// The perf gate's band. A fresh suite row passes when its throughput is at
// least gateThroughputFactor of the committed row's and its allocation
// count at most gateAllocFactor of it. Each folds two stages of the
// schema-5 gate into one: committed floors at 0.40× throughput and 1.15×
// allocations, widened again by CI's 25% tolerance (0.40 × 0.75 and
// 1.15 × 1.25). The throughput band is wide because the machine that
// measured the baseline and the CI runner differ in hardware and load;
// allocation counts are near-deterministic, so their band is tight.
const (
	gateThroughputFactor = 0.30
	gateAllocFactor      = 1.4375
)

// GateRow is one pipeline level's perf-gate verdict: the committed
// baseline's measurement and the band derived from it, next to the freshly
// measured values.
type GateRow struct {
	Level string
	// BaseRTLsPerSec / BaseAllocsPerOp are the committed measurements.
	BaseRTLsPerSec  float64
	BaseAllocsPerOp int64
	// MinRTLsPerSec / MaxAllocsPerOp are the band's bounds: the committed
	// measurements scaled by gateThroughputFactor and gateAllocFactor.
	MinRTLsPerSec  float64
	MaxAllocsPerOp int64
	// GotRTLsPerSec / GotAllocsPerOp are the fresh measurements.
	GotRTLsPerSec  float64
	GotAllocsPerOp int64
	// ThroughputOK / AllocsOK are the two verdicts; Pass is their
	// conjunction.
	ThroughputOK bool
	AllocsOK     bool
	Pass         bool
}

// Gate compares fresh suite measurements against the baseline's committed
// suite rows: a level passes when its throughput is at least
// gateThroughputFactor of the committed value and its allocation count at
// most gateAllocFactor of it. Returns one row per committed level and an
// error naming every failing level (nil when all pass).
func (bl *Baseline) Gate(fresh []SuiteResult) ([]GateRow, error) {
	byLevel := map[string]SuiteResult{}
	for _, s := range fresh {
		byLevel[s.Level] = s
	}
	var rows []GateRow
	var failures []string
	for _, base := range bl.Suite {
		got, ok := byLevel[base.Level]
		if !ok {
			return nil, fmt.Errorf("bench: fresh measurements miss level %s", base.Level)
		}
		row := GateRow{
			Level:           base.Level,
			BaseRTLsPerSec:  base.RTLsPerSec,
			BaseAllocsPerOp: base.AllocsPerOp,
			MinRTLsPerSec:   base.RTLsPerSec * gateThroughputFactor,
			MaxAllocsPerOp:  int64(float64(base.AllocsPerOp) * gateAllocFactor),
			GotRTLsPerSec:   got.RTLsPerSec,
			GotAllocsPerOp:  got.AllocsPerOp,
		}
		row.ThroughputOK = row.GotRTLsPerSec >= row.MinRTLsPerSec
		row.AllocsOK = row.GotAllocsPerOp <= row.MaxAllocsPerOp
		row.Pass = row.ThroughputOK && row.AllocsOK
		if !row.Pass {
			failures = append(failures, base.Level)
		}
		rows = append(rows, row)
	}
	if len(failures) > 0 {
		return rows, fmt.Errorf("bench: perf gate failed for %v", failures)
	}
	return rows, nil
}

// mark renders one verdict as the summary table's pass/fail cell.
func mark(ok bool) string {
	if ok {
		return "✅"
	}
	return "❌"
}

// WriteGateSummary renders the gate rows as a GitHub-flavored Markdown
// delta table (the perf-gate job appends it to $GITHUB_STEP_SUMMARY).
func WriteGateSummary(w io.Writer, rows []GateRow) error {
	if _, err := fmt.Fprintf(w, "### Perf gate (floor %.0f%% of base RTLs/sec, cap %.2f%% of base allocs/op)\n\n",
		100*gateThroughputFactor, 100*gateAllocFactor); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "| Level | RTLs/sec (base) | RTLs/sec (now) | Δ | floor | allocs/op (base) | allocs/op (now) | Δ | cap | verdict |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|---:|---:|:---:|"); err != nil {
		return err
	}
	pct := func(base, got float64) string {
		if base == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*(got-base)/base)
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "| %s | %.0f | %.0f | %s | ≥%.0f %s | %d | %d | %s | ≤%d %s | %s |\n",
			r.Level,
			r.BaseRTLsPerSec, r.GotRTLsPerSec, pct(r.BaseRTLsPerSec, r.GotRTLsPerSec),
			r.MinRTLsPerSec, mark(r.ThroughputOK),
			r.BaseAllocsPerOp, r.GotAllocsPerOp, pct(float64(r.BaseAllocsPerOp), float64(r.GotAllocsPerOp)),
			r.MaxAllocsPerOp, mark(r.AllocsOK),
			mark(r.Pass)); err != nil {
			return err
		}
	}
	return nil
}
