package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/cfg"
	"repro/internal/difftest"
	"repro/internal/encode"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
)

// BaselineSchema is the schema version written into BENCH_baseline.json;
// bump it when the shape of Baseline changes incompatibly. Schema 2 added
// the Encoded section (per machine×level suite code bytes and jump forms);
// schema 3 added the Floors section (per-level throughput and allocation
// acceptance bounds enforced by the CI perf gate) and made the suite's
// allocation measurements mandatory; schema 4 added the DUPS level — the
// suite, encoded and floors sections grew from three levels to four (12
// encoded cells), so older files fail the per-level completeness checks;
// schema 5 dropped the Floyd–Warshall path engine's stress row and the
// matrix/oracle stress_speedup, since that engine became a test-only
// reference.
const BaselineSchema = 5

// Floor-derivation factors: the committed floor admits throughput down to
// FloorThroughputFactor of the measured value and allocation counts up to
// FloorAllocFactor of it. The wide throughput band absorbs hardware and
// load variance between the machine that measured the baseline and the CI
// runner; allocation counts are near-deterministic, so their band is tight.
const (
	FloorThroughputFactor = 0.40
	FloorAllocFactor      = 1.15
)

// DefaultStressStates is the standard size of the synthetic stress
// function (difftest.GenerateStress) used by the committed baseline: about
// 1700 blocks before replication, large enough that the all-pairs step 1
// the oracle avoids would dominate the compile.
const DefaultStressStates = 300

// Baseline is the machine-readable performance baseline committed as
// BENCH_baseline.json. Regenerate it with `go run ./cmd/bench` (see
// docs/PERFORMANCE.md); CI only validates that the committed file parses
// and is self-consistent, so numbers from different hardware never fail a
// build.
type Baseline struct {
	// Schema identifies the file format (BaselineSchema).
	Schema int `json:"schema"`
	// Machine is the machine model every compile benchmark targets.
	Machine string `json:"machine"`
	// Suite holds one entry per pipeline level: the full Table-3 program
	// suite compiled front-to-back at that level.
	Suite []SuiteResult `json:"suite"`
	// Stress holds one entry: the synthetic stress function compiled at
	// the stock 20000-RTL replication ceiling. It stays a list so that
	// history records from before schema 5, which carried one entry per
	// path engine, still load.
	Stress []StressResult `json:"stress"`
	// Encoded holds the encoded code size of the whole Table-3 suite for
	// every machine × level cell, with the displacement fixpoint's jump
	// form split. Unlike the timing sections these numbers are
	// deterministic (pure layout, no clocks), so CI can compare them
	// exactly.
	Encoded []EncodedResult `json:"encoded"`
	// Floors holds the perf-gate acceptance bounds per pipeline level,
	// derived from the committed suite measurements (DeriveFloors). CI
	// re-measures the suite and fails the build when a level's throughput
	// drops below MinRTLsPerSec or its allocation count rises above
	// MaxAllocsPerOp (cmd/bench -gate).
	Floors []Floor `json:"floors"`
}

// Floor is one level's perf-gate acceptance bound.
type Floor struct {
	// Level is the pipeline level name ("SIMPLE", "LOOPS", "JUMPS",
	// "DUPS").
	Level string `json:"level"`
	// MinRTLsPerSec is the lowest acceptable suite compile throughput.
	MinRTLsPerSec float64 `json:"min_rtls_per_sec"`
	// MaxAllocsPerOp is the highest acceptable allocation count per suite
	// compile.
	MaxAllocsPerOp int64 `json:"max_allocs_per_op"`
}

// DeriveFloors computes the perf-gate bounds from measured suite results.
func DeriveFloors(suite []SuiteResult) []Floor {
	floors := make([]Floor, 0, len(suite))
	for _, s := range suite {
		floors = append(floors, Floor{
			Level:          s.Level,
			MinRTLsPerSec:  s.RTLsPerSec * FloorThroughputFactor,
			MaxAllocsPerOp: int64(float64(s.AllocsPerOp) * FloorAllocFactor),
		})
	}
	return floors
}

// EncodedResult reports the encoded layout of the whole Table-3 suite on
// one machine at one level.
type EncodedResult struct {
	// Machine and Level name the cell.
	Machine string `json:"machine"`
	Level   string `json:"level"`
	// CodeBytes is the summed encoded size of every suite program.
	CodeBytes int64 `json:"code_bytes"`
	// ShortJumps and NearJumps count the variable jumps by the form the
	// fixpoint assigned (both zero on machines without an Encoder).
	ShortJumps int `json:"short_jumps"`
	NearJumps  int `json:"near_jumps"`
}

// SuiteResult reports compiling the whole Table-3 suite at one level.
type SuiteResult struct {
	// Level is the pipeline level name ("SIMPLE", "LOOPS", "JUMPS",
	// "DUPS").
	Level string `json:"level"`
	// NsPerOp is the wall time per suite compile (all 14 programs).
	NsPerOp int64 `json:"ns_per_op"`
	// AllocsPerOp is the allocation count per suite compile.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is the allocated bytes per suite compile.
	BytesPerOp int64 `json:"bytes_per_op"`
	// RTLs is the total input size: RTL instructions entering the
	// optimizer per suite compile, summed over all programs and functions.
	RTLs int64 `json:"rtls"`
	// RTLsPerSec is compile throughput: RTLs / (NsPerOp in seconds).
	RTLsPerSec float64 `json:"rtls_per_sec"`
}

// StressResult reports compiling the synthetic stress function.
type StressResult struct {
	// States is the difftest.GenerateStress size used.
	States int `json:"states"`
	// RTLs is the function's RTL count entering the optimizer.
	RTLs int64 `json:"rtls"`
	// NsPerOp is the wall time per stress compile.
	NsPerOp int64 `json:"ns_per_op"`
	// RTLsPerSec is input-RTL throughput of the whole pipeline compile.
	RTLsPerSec float64 `json:"rtls_per_sec"`
}

// progRTLs sums the RTL counts of every function of a compiled program.
func progRTLs(p *cfg.Program) int64 {
	var n int64
	for _, f := range p.Funcs {
		n += int64(f.NumRTLs())
	}
	return n
}

// SuiteRTLs returns the total optimizer-input size of the Table-3 suite in
// RTL instructions (the numerator of the suite throughput metrics).
func SuiteRTLs() (int64, error) {
	var total int64
	for _, p := range Programs() {
		prog, err := mcc.Compile(p.Source)
		if err != nil {
			return 0, fmt.Errorf("bench: compile %s: %w", p.Name, err)
		}
		total += progRTLs(prog)
	}
	return total, nil
}

// CompileSuiteBench returns a benchmark function that compiles every
// Table-3 program front-to-back (parse + optimize) at the given level.
// Shared by the root `go test -bench` macro benchmarks and cmd/bench.
func CompileSuiteBench(m *machine.Machine, lv pipeline.Level) func(b *testing.B) {
	progs := Programs()
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for pi := range progs {
				prog, err := mcc.Compile(progs[pi].Source)
				if err != nil {
					b.Fatal(err)
				}
				pipeline.Optimize(prog, pipeline.Config{Machine: m, Level: lv})
			}
		}
	}
}

// StressSource returns the mini-C source of the standard stress shape at
// the given size (difftest.GenerateStress re-exported so cmd/bench and the
// root benchmarks agree on the exact program).
func StressSource(states int) string { return difftest.GenerateStress(states) }

// StressCompileBench returns a benchmark function that compiles the
// synthetic stress function at the JUMPS level with the stock 20000-RTL
// replication ceiling. Shared by the root `go test -bench` macro
// benchmarks and cmd/bench.
func StressCompileBench(states int) func(b *testing.B) {
	src := StressSource(states)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prog, err := mcc.Compile(src)
			if err != nil {
				b.Fatal(err)
			}
			pipeline.Optimize(prog, pipeline.Config{Machine: machine.M68020, Level: pipeline.Jumps})
		}
	}
}

// MeasureEncoded lays out the whole Table-3 suite on every registered
// machine at every level and returns the per-cell encoded sizes in
// canonical (machine × level) order. Deterministic: same sources, same
// bytes, on any host.
func MeasureEncoded() ([]EncodedResult, error) {
	var out []EncodedResult
	for _, m := range machine.All() {
		for _, lv := range pipeline.AllLevels() {
			er := EncodedResult{Machine: m.Name, Level: lv.String()}
			for _, p := range Programs() {
				prog, err := mcc.Compile(p.Source)
				if err != nil {
					return nil, fmt.Errorf("bench: compile %s: %w", p.Name, err)
				}
				pipeline.Optimize(prog, pipeline.Config{Machine: m, Level: lv})
				ep := encode.LayoutProgram(prog, m)
				er.CodeBytes += ep.CodeBytes
				for _, ef := range ep.Funcs {
					er.ShortJumps += ef.Short
					er.NearJumps += ef.Near
				}
			}
			out = append(out, er)
		}
	}
	return out, nil
}

// RunBaseline measures the full baseline: the Table-3 suite compile at
// every pipeline level plus the stress compile.
// states sizes the stress function (0 = DefaultStressStates). Progress
// lines go to progress when non-nil (the runs take tens of seconds).
func RunBaseline(states int, progress io.Writer) (*Baseline, error) {
	if states == 0 {
		states = DefaultStressStates
	}
	logf := func(format string, args ...interface{}) {
		if progress != nil {
			fmt.Fprintf(progress, format+"\n", args...)
		}
	}
	bl := &Baseline{Schema: BaselineSchema, Machine: machine.M68020.Name}
	var err error
	if bl.Suite, err = RunSuite(progress); err != nil {
		return nil, err
	}

	stressProg, err := mcc.Compile(StressSource(states))
	if err != nil {
		return nil, fmt.Errorf("bench: compile stress: %w", err)
	}
	stressRTLs := progRTLs(stressProg)
	logf("stress compile (%d states, %d RTLs)...", states, stressRTLs)
	ns := testing.Benchmark(StressCompileBench(states)).NsPerOp()
	bl.Stress = []StressResult{{
		States:     states,
		RTLs:       stressRTLs,
		NsPerOp:    ns,
		RTLsPerSec: float64(stressRTLs) * 1e9 / float64(ns),
	}}

	logf("encoded layout of the suite on %d machines...", len(machine.All()))
	bl.Encoded, err = MeasureEncoded()
	if err != nil {
		return nil, err
	}
	bl.Floors = DeriveFloors(bl.Suite)
	return bl, nil
}

// RunSuite measures only the Table-3 suite compile benchmarks (the part of
// the baseline the perf gate compares): much faster than RunBaseline since
// the stress compiles and the 12-cell encoded layout are skipped.
func RunSuite(progress io.Writer) ([]SuiteResult, error) {
	suiteRTLs, err := SuiteRTLs()
	if err != nil {
		return nil, err
	}
	var out []SuiteResult
	for _, lv := range pipeline.AllLevels() {
		if progress != nil {
			fmt.Fprintf(progress, "suite compile at %s...\n", lv)
		}
		r := testing.Benchmark(CompileSuiteBench(machine.M68020, lv))
		ns := r.NsPerOp()
		out = append(out, SuiteResult{
			Level:       lv.String(),
			NsPerOp:     ns,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			RTLs:        suiteRTLs,
			RTLsPerSec:  float64(suiteRTLs) * 1e9 / float64(ns),
		})
	}
	return out, nil
}

// WriteJSON writes the baseline as indented JSON.
func (bl *Baseline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bl)
}

// LoadBaseline reads and validates a baseline file; it returns an error
// when the file is missing, unparsable, or structurally inconsistent (the
// CI smoke gate).
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bl Baseline
	if err := json.Unmarshal(data, &bl); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := bl.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &bl, nil
}

// Validate checks the baseline's structural invariants: known schema, one
// suite entry per pipeline level with every measurement populated
// (including the allocation columns the perf gate relies on), one stress
// entry, the full encoded grid, and self-consistent floors — the committed
// measurements must satisfy their own bounds.
func (bl *Baseline) Validate() error {
	if bl.Schema != BaselineSchema {
		return fmt.Errorf("schema %d, want %d", bl.Schema, BaselineSchema)
	}
	if bl.Machine == "" {
		return fmt.Errorf("missing machine name")
	}
	levels := map[string]SuiteResult{}
	for _, s := range bl.Suite {
		if s.NsPerOp <= 0 || s.RTLs <= 0 || s.RTLsPerSec <= 0 {
			return fmt.Errorf("suite level %q: non-positive measurement", s.Level)
		}
		if s.AllocsPerOp <= 0 || s.BytesPerOp <= 0 {
			return fmt.Errorf("suite level %q: missing allocation measurements", s.Level)
		}
		levels[s.Level] = s
	}
	for _, lv := range pipeline.AllLevels() {
		if _, ok := levels[lv.String()]; !ok {
			return fmt.Errorf("suite is missing level %s", lv)
		}
	}
	floors := map[string]bool{}
	for _, fl := range bl.Floors {
		s, ok := levels[fl.Level]
		if !ok {
			return fmt.Errorf("floor for unknown level %q", fl.Level)
		}
		if fl.MinRTLsPerSec <= 0 || fl.MaxAllocsPerOp <= 0 {
			return fmt.Errorf("floor %s: non-positive bound", fl.Level)
		}
		if s.RTLsPerSec < fl.MinRTLsPerSec || s.AllocsPerOp > fl.MaxAllocsPerOp {
			return fmt.Errorf("floor %s: committed measurement violates its own bound", fl.Level)
		}
		floors[fl.Level] = true
	}
	for _, lv := range pipeline.AllLevels() {
		if !floors[lv.String()] {
			return fmt.Errorf("floors section is missing level %s", lv)
		}
	}
	if len(bl.Stress) != 1 {
		return fmt.Errorf("stress section has %d entries, want 1", len(bl.Stress))
	}
	if s := bl.Stress[0]; s.NsPerOp <= 0 || s.RTLs <= 0 || s.States <= 0 {
		return fmt.Errorf("stress: non-positive measurement")
	}
	cells := map[string]EncodedResult{}
	for _, e := range bl.Encoded {
		if e.CodeBytes <= 0 {
			return fmt.Errorf("encoded %s/%s: non-positive code bytes", e.Machine, e.Level)
		}
		if e.ShortJumps < 0 || e.NearJumps < 0 {
			return fmt.Errorf("encoded %s/%s: negative jump counts", e.Machine, e.Level)
		}
		cells[e.Machine+"/"+e.Level] = e
	}
	for _, m := range machine.All() {
		for _, lv := range pipeline.AllLevels() {
			e, ok := cells[m.Name+"/"+lv.String()]
			if !ok {
				return fmt.Errorf("encoded section is missing cell %s/%s", m.Name, lv)
			}
			if m.Encoder != nil && e.ShortJumps+e.NearJumps == 0 {
				return fmt.Errorf("encoded %s/%s: no variable jumps on an encoder machine", m.Name, lv)
			}
			if m.Encoder == nil && e.ShortJumps+e.NearJumps != 0 {
				return fmt.Errorf("encoded %s/%s: variable jumps on an encoder-less machine", m.Name, lv)
			}
		}
	}
	return nil
}
