package pipeline_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/difftest"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/replicate"
)

var listingsGolden = filepath.Join("testdata", "listings.golden")

// listingsSeeds is the band of generator seeds the golden pins, compiled
// at difftest's options: the six seeds of the fuzz-oracle workload.
const listingsSeeds = 6

// oracleSpec is the compile spec difftest.Check uses: the default options
// with its 12000-RTL growth cap.
var oracleSpec = pipeline.Spec{Replication: replicate.Options{MaxFuncRTLs: 12000}}

// listingLine compiles src for one cell and renders the sha256 of its
// assembly listing with the pipeline's iteration count and replication
// counters.
func listingLine(name, src string, m *machine.Machine, lv pipeline.Level, spec pipeline.Spec) (string, error) {
	prog, err := mcc.Compile(src)
	if err != nil {
		return "", err
	}
	st := pipeline.Optimize(prog, pipeline.Config{Machine: m, Level: lv, Spec: spec})
	var lst bytes.Buffer
	if err := asm.EmitListing(&lst, prog, m); err != nil {
		return "", err
	}
	r := st.Replication
	return fmt.Sprintf("%s %s %s %x iters=%d reps=%d deleted=%d rollbacks=%d copied=%d folded=%d\n",
		name, m.Name, lv, sha256.Sum256(lst.Bytes()), st.Iterations,
		r.Replications, r.JumpsDeleted, r.Rollbacks, r.RTLsCopied, r.BranchesFolded), nil
}

// TestListingsGolden pins the optimized code itself, not only what it
// measures: one line per (program, machine, level) holding the sha256 of
// asm.EmitListing and the Stats counters of the compile. The programs are
// the 14 Table-3 programs at ease's default options and generator seeds
// 1-6 at difftest's. An optimizer change that claims to keep the code
// byte-identical must pass this without regenerating it;
// REPRO_GEN_GOLDENS=1 regenerates it after an intentional code change.
func TestListingsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("240 compiles; skipped in -short")
	}
	type source struct {
		name, src string
		spec      pipeline.Spec
	}
	var srcs []source
	for _, p := range bench.Programs() {
		srcs = append(srcs, source{p.Name, p.Source, pipeline.Spec{}})
	}
	for seed := int64(1); seed <= listingsSeeds; seed++ {
		srcs = append(srcs, source{fmt.Sprintf("seed%d", seed), difftest.Generate(seed), oracleSpec})
	}
	var got strings.Builder
	for _, s := range srcs {
		for _, m := range machine.All() {
			for _, lv := range pipeline.AllLevels() {
				line, err := listingLine(s.name, s.src, m, lv, s.spec)
				if err != nil {
					t.Fatalf("%s %s %s: %v", s.name, m.Name, lv, err)
				}
				got.WriteString(line)
			}
		}
	}
	if os.Getenv("REPRO_GEN_GOLDENS") != "" {
		if err := os.WriteFile(listingsGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(listingsGolden)
	if err != nil {
		t.Fatalf("%v (REPRO_GEN_GOLDENS=1 regenerates)", err)
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s line %d differs:\n got  %s\n want %s", listingsGolden, i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s has %d lines, the compiles %d", listingsGolden, len(w)-1, len(g)-1)
	}
}
