package pipeline_test

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// jobsFixture optimizes one compilation of the named Table-3 program with
// the given worker count and returns the final listing, the stats, and the
// timing-stripped trace stream.
func jobsFixture(t *testing.T, prog string, lv pipeline.Level, jobs int) (string, pipeline.Stats, []byte) {
	t.Helper()
	p := bench.ProgramByName(prog)
	if p == nil {
		t.Fatalf("bench corpus misses %s", prog)
	}
	cp, err := mcc.Compile(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	w.OmitTimings = true
	st := pipeline.Optimize(cp, pipeline.Config{
		Machine: machine.SPARC, Level: lv, Tracer: w, Jobs: jobs,
	})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return cp.String(), st, buf.Bytes()
}

// TestOptimizeJobsDeterministic is the acceptance property of the parallel
// driver: for every Table-3 program and level, compiling at -j 1 and -j 8
// yields byte-identical listings, identical statistics, and byte-identical
// timing-stripped trace streams (the serial func-major event order).
func TestOptimizeJobsDeterministic(t *testing.T) {
	for _, p := range bench.Programs() {
		for _, lv := range pipeline.AllLevels() {
			l1, s1, t1 := jobsFixture(t, p.Name, lv, 1)
			l8, s8, t8 := jobsFixture(t, p.Name, lv, 8)
			if l1 != l8 {
				t.Errorf("%s/%s: listings differ between -j 1 and -j 8", p.Name, lv)
			}
			if s1.StaticInsts != s8.StaticInsts || s1.StaticJumps != s8.StaticJumps ||
				s1.SlotsFilled != s8.SlotsFilled || s1.Iterations != s8.Iterations ||
				s1.Replication != s8.Replication {
				t.Errorf("%s/%s: stats differ: serial %+v parallel %+v", p.Name, lv, s1, s8)
			}
			if !bytes.Equal(t1, t8) {
				t.Errorf("%s/%s: trace streams differ between -j 1 and -j 8", p.Name, lv)
			}
		}
	}
}

// TestOptimizeJobsVerifyEach runs the parallel driver under the semantic
// verifier: a healthy pipeline must report zero violations with workers
// enabled.
func TestOptimizeJobsVerifyEach(t *testing.T) {
	p := bench.ProgramByName("sort")
	if p == nil {
		t.Fatal("bench corpus misses sort")
	}
	cp, err := mcc.Compile(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	st := pipeline.Optimize(cp, pipeline.Config{
		Machine: machine.M68020, Level: pipeline.Jumps, Jobs: 8,
		Spec: pipeline.Spec{VerifyEach: true},
	})
	if len(st.Verify) != 0 {
		t.Fatalf("verify-each under -j 8 found violations: %v", st.Verify)
	}
}
