package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"testing"

	"repro/internal/encode"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
)

// BaselineSchema is the schema version written into BENCH_baseline.json;
// bump it when the shape of Baseline changes incompatibly. Schema 2 added
// the Encoded section (per machine×level suite code bytes and jump forms);
// schema 3 added a floors section (per-level acceptance bounds for the CI
// perf gate) and made the suite's allocation measurements mandatory;
// schema 4 added the DUPS level — the suite and encoded sections grew from
// three levels to four (12 encoded cells), so older files fail the
// per-level completeness checks; schema 5 dropped the Floyd–Warshall path
// engine's stress row, since that engine became a test-only reference;
// schema 6 dropped the floors, which only restated the suite rows (Gate
// derives its band from them), and the last stress row, which nothing
// read.
const BaselineSchema = 6

// Baseline is the machine-readable performance baseline committed as
// BENCH_baseline.json. Regenerate it with `go run ./cmd/bench` (see
// docs/PERFORMANCE.md). Each section has one enforcer: the CI perf gate
// re-measures the suite and holds it to Gate's band, and
// TestEncodedMatchesBaseline requires a fresh encoded layout to equal the
// committed one exactly.
type Baseline struct {
	// Schema identifies the file format (BaselineSchema).
	Schema int `json:"schema"`
	// Machine is the machine model every compile benchmark targets.
	Machine string `json:"machine"`
	// Suite holds one entry per pipeline level: the full Table-3 program
	// suite compiled front-to-back at that level.
	Suite []SuiteResult `json:"suite"`
	// Encoded holds the encoded code size of the whole Table-3 suite for
	// every machine × level cell, with the displacement fixpoint's jump
	// form split. Unlike the suite timings these numbers are
	// deterministic (pure layout, no clocks), so they are compared
	// exactly.
	Encoded []EncodedResult `json:"encoded"`
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

// SuiteRTLs returns the total optimizer-input size of the Table-3 suite in
// RTL instructions (the numerator of the suite throughput metrics).
func SuiteRTLs() (int64, error) {
	var total int64
	for _, p := range Programs() {
		prog, err := mcc.Compile(p.Source)
		if err != nil {
			return 0, fmt.Errorf("bench: compile %s: %w", p.Name, err)
		}
		total += int64(prog.NumRTLs())
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
// every pipeline level plus the encoded layout of every machine × level
// cell. Progress lines go to progress when non-nil (the runs take tens of
// seconds).
func RunBaseline(progress io.Writer) (*Baseline, error) {
	bl := &Baseline{Schema: BaselineSchema, Machine: machine.M68020.Name}
	var err error
	if bl.Suite, err = RunSuite(progress); err != nil {
		return nil, err
	}
	if progress != nil {
		fmt.Fprintf(progress, "encoded layout of the suite on %d machines...\n", len(machine.All()))
	}
	if bl.Encoded, err = MeasureEncoded(); err != nil {
		return nil, err
	}
	return bl, nil
}

// suiteRuns is how many testing.Benchmark runs RunSuite times per level;
// it reports the run with the median ns/op, so one slow or fast run does
// not set the gate table's delta.
const suiteRuns = 3

// RunSuite measures only the Table-3 suite compile benchmarks (the part of
// the baseline the perf gate compares): faster than RunBaseline since the
// 12-cell encoded layout is skipped. Each level's row is the median of
// suiteRuns runs by ns/op, with that run's allocation counts.
func RunSuite(progress io.Writer) ([]SuiteResult, error) {
	suiteRTLs, err := SuiteRTLs()
	if err != nil {
		return nil, err
	}
	var out []SuiteResult
	for _, lv := range pipeline.AllLevels() {
		if progress != nil {
			fmt.Fprintf(progress, "suite compile at %s (%d runs)...\n", lv, suiteRuns)
		}
		runs := make([]testing.BenchmarkResult, suiteRuns)
		for i := range runs {
			runs[i] = testing.Benchmark(CompileSuiteBench(machine.M68020, lv))
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i].NsPerOp() < runs[j].NsPerOp() })
		r := runs[suiteRuns/2]
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
// (including the allocation columns the perf gate relies on), and the full
// encoded grid.
func (bl *Baseline) Validate() error {
	if bl.Schema != BaselineSchema {
		return fmt.Errorf("schema %d, want %d", bl.Schema, BaselineSchema)
	}
	if bl.Machine == "" {
		return fmt.Errorf("missing machine name")
	}
	levels := map[string]bool{}
	for _, s := range bl.Suite {
		if s.NsPerOp <= 0 || s.RTLs <= 0 || s.RTLsPerSec <= 0 {
			return fmt.Errorf("suite level %q: non-positive measurement", s.Level)
		}
		if s.AllocsPerOp <= 0 || s.BytesPerOp <= 0 {
			return fmt.Errorf("suite level %q: missing allocation measurements", s.Level)
		}
		levels[s.Level] = true
	}
	for _, lv := range pipeline.AllLevels() {
		if !levels[lv.String()] {
			return fmt.Errorf("suite is missing level %s", lv)
		}
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
