package replicate_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/difftest"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/obs"
	"repro/internal/replicate"
)

// jumpsOverProgram compiles src with mcc, legalizes every function for m
// and runs jumps over each, returning the OmitTimings JSONL decision trace,
// the resulting program text and the summed counters.
func jumpsOverProgram(t *testing.T, src string, m *machine.Machine,
	jumps func(*cfg.Func, replicate.Options) replicate.Result) ([]byte, string, replicate.Result) {
	t.Helper()
	prog, err := mcc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	w.OmitTimings = true
	// A growth cap keeps the matrix's O(V³) sweeps affordable; every
	// decision up to the cap is still compared.
	opts := replicate.Options{Tracer: w, MaxFuncRTLs: 1500}
	var res replicate.Result
	var text strings.Builder
	for _, f := range prog.Funcs {
		machine.Legalize(f, m)
		res.Merge(jumps(f, opts))
		fmt.Fprintf(&text, "%s\n", f)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("trace: %v", err)
	}
	return buf.Bytes(), text.String(), res
}

// clip bounds a trace quoted in a failure message.
func clip(b []byte) []byte {
	if len(b) > 4000 {
		return b[:4000]
	}
	return b
}

// TestEngineEquivalenceSeeds runs JUMPS under both step-1 path finders over
// 200 generated mini-C programs (difftest.Generate; most are goto state
// machines), compiled with mcc and legalized for each machine in turn. The
// JSONL decision traces — every jump considered, every candidate sequence
// with its RTL cost, every rollback and outcome — must be byte-identical,
// as must the replicated code and the counters.
func TestEngineEquivalenceSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential sweep")
	}
	const seeds = 200
	gotos := 0
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		src := difftest.Generate(seed)
		if strings.Contains(src, "goto") {
			gotos++
		}
		m := machine.All()[seed%int64(len(machine.All()))]
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel() // seeds are independent
			mTrace, mText, mRes := jumpsOverProgram(t, src, m, replicate.JUMPSMatrix)
			oTrace, oText, oRes := jumpsOverProgram(t, src, m, replicate.JUMPS)
			if !bytes.Equal(mTrace, oTrace) {
				t.Fatalf("seed %d on %s: decision traces differ\nmatrix:\n%s\noracle:\n%s", seed, m.Name, clip(mTrace), clip(oTrace))
			}
			if mText != oText {
				t.Fatalf("seed %d on %s: replicated code differs", seed, m.Name)
			}
			if mRes != oRes {
				t.Fatalf("seed %d on %s: counters differ: matrix %+v, oracle %+v", seed, m.Name, mRes, oRes)
			}
		})
	}
	if gotos == 0 {
		t.Fatal("no goto state machine among the seeds")
	}
}
