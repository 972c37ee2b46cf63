package difftest

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/replicate"
)

var update = flag.Bool("update", false, "rewrite testdata/engine_equiv.golden from the current pipeline")

// engineGolden holds one line per seed: "seed<N> <trace sha256> <code sha256>".
var engineGolden = filepath.Join("testdata", "engine_equiv.golden")

// jumpsDigests compiles src through the full JUMPS pipeline and returns the
// hex SHA-256 of its timing-stripped JSONL trace (every pass span and every
// replication decision) and of the optimized program text.
func jumpsDigests(t *testing.T, src string) (trace, code string) {
	t.Helper()
	prog, err := mcc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	w.OmitTimings = true
	pipeline.Optimize(prog, pipeline.Config{
		Machine: machine.M68020,
		Level:   pipeline.Jumps,
		Tracer:  w,
		// A tight growth cap keeps the 200 full-pipeline compiles fast;
		// every replication decision up to the cap is still pinned.
		Spec: pipeline.Spec{Replication: replicate.Options{MaxFuncRTLs: 1500}},
	})
	if err := w.Err(); err != nil {
		t.Fatalf("trace: %v", err)
	}
	var text bytes.Buffer
	for _, f := range prog.Funcs {
		fmt.Fprintf(&text, "%s\n", f)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), fmt.Sprintf("%x", sha256.Sum256(text.Bytes()))
}

// TestEngineEquivalenceSeeds is the fuzz-scale differential check of step
// 1's path finder through the full JUMPS pipeline: 200 generated programs
// are compiled at JUMPS, and the decision trace — every jump considered,
// every candidate sequence with its RTL cost, every rollback and outcome —
// and the optimized code must hash to the values in
// testdata/engine_equiv.golden. The committed values were recorded with
// step 1 answered by the paper's all-pairs Floyd–Warshall matrix, and the
// on-demand oracle reproduced every one of them. The matrix itself lives
// only in internal/replicate's tests, whose TestEngineEquivalenceSeeds
// compares it against the oracle decision by decision over the same 200
// programs. When JUMPS output changes on purpose, make that test pass
// first, then rewrite the file with
// `go test ./internal/difftest -run EngineEquivalenceSeeds -update`.
func TestEngineEquivalenceSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential sweep")
	}
	const seeds = 200
	if *update {
		var sb strings.Builder
		for seed := int64(1); seed <= seeds; seed++ {
			trace, code := jumpsDigests(t, Generate(seed))
			fmt.Fprintf(&sb, "seed%d %s %s\n", seed, trace, code)
		}
		if err := os.WriteFile(engineGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readEngineGolden(t)
	if len(want) != seeds {
		t.Fatalf("%s holds %d seeds, want %d", engineGolden, len(want), seeds)
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		name := fmt.Sprintf("seed%d", seed)
		t.Run(name, func(t *testing.T) {
			t.Parallel() // seeds are independent; the pipeline is audited for concurrent use
			w, ok := want[name]
			if !ok {
				t.Fatalf("%s has no line for %s", engineGolden, name)
			}
			trace, code := jumpsDigests(t, Generate(seed))
			if trace != w[0] {
				t.Fatalf("seed %d: decision trace differs from the Floyd–Warshall engine's (sha256 %s, want %s)", seed, trace, w[0])
			}
			if code != w[1] {
				t.Fatalf("seed %d: optimized code differs from the Floyd–Warshall engine's (sha256 %s, want %s)", seed, code, w[1])
			}
		})
	}
}

// readEngineGolden parses engineGolden into seed name → {trace, code}.
func readEngineGolden(t *testing.T) map[string][2]string {
	t.Helper()
	f, err := os.Open(engineGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	defer f.Close()
	out := map[string][2]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", engineGolden, sc.Text())
		}
		out[fields[0]] = [2]string{fields[1], fields[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
