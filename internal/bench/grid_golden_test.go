package bench_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ease"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

var gridGolden = filepath.Join("testdata", "grid.golden")

// matchGolden compares got with the golden file at path, naming the first
// line that differs, or rewrites the file under REPRO_GEN_GOLDENS=1.
func matchGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if os.Getenv("REPRO_GEN_GOLDENS") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (REPRO_GEN_GOLDENS=1 regenerates)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s line %d differs:\n got  %s\n want %s", path, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s has %d lines, the render %d", path, len(w), len(g))
}

// fetchDigest folds an instruction-fetch stream into 64 bits, one
// FNV-1a-style step per word: the address, then the size.
type fetchDigest uint64

func (d *fetchDigest) fetch(addr, size int64) {
	h := uint64(*d)
	h = (h ^ uint64(addr)) * 1099511628211
	h = (h ^ uint64(size)) * 1099511628211
	*d = fetchDigest(h)
}

// gridGoldenLine measures one cell with the paper's cache bank and renders
// everything the measurement path produces: every vm.Counts field, the
// code size, exit code, output digest, fetch-stream digest and all eight
// caches' statistics.
func gridGoldenLine(p bench.Program, m *machine.Machine, lv pipeline.Level) (string, error) {
	d := fetchDigest(14695981039346656037)
	run, err := ease.Measure(ease.Request{
		Name:           p.Name,
		Source:         p.Source,
		Input:          []byte(p.Input),
		Machine:        m,
		Level:          lv,
		SimulateCaches: true,
		OnFetch:        d.fetch,
	})
	if err != nil {
		return "", err
	}
	c := run.Dynamic
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s exec=%d jumps=%d ijumps=%d branches=%d taken=%d calls=%d rets=%d nops=%d transfers=%d",
		p.Name, m.Name, lv, c.Exec, c.UncondJumps, c.IndirectJumps, c.CondBranches,
		c.TakenBranches, c.Calls, c.Rets, c.Nops, c.Transfers)
	fmt.Fprintf(&b, " code=%d exit=%d out=%x fetch=%016x", run.CodeBytes, run.ExitCode,
		sha256.Sum256(run.Output), uint64(d))
	for _, s := range run.Caches {
		fmt.Fprintf(&b, " %d/%t:%d,%d,%d,%d", s.SizeBytes, s.CtxSwitches, s.Fetches, s.Misses, s.Cost, s.Flushes)
	}
	return b.String(), nil
}

// TestGridGolden pins the measurements of all 168 cells of Tables 4–6
// (14 programs × 3 machines × 4 levels, cache bank on) to
// testdata/grid.golden: a change to the VM, the cache simulator, the
// encoder or the optimizer that moves any executed count, code byte,
// output byte, fetch or cache statistic fails here. Regenerate with
// REPRO_GEN_GOLDENS=1 after an intentional change.
func TestGridGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full 168-cell grid; skipped in -short")
	}
	var got bytes.Buffer
	for _, p := range bench.Programs() {
		for _, m := range machine.All() {
			for _, lv := range pipeline.AllLevels() {
				line, err := gridGoldenLine(p, m, lv)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", p.Name, m.Name, lv, err)
				}
				got.WriteString(line)
				got.WriteByte('\n')
			}
		}
	}
	matchGolden(t, gridGolden, got.Bytes())
}

// tablesGoldens are the rendered paper tables: what `tables -q` prints
// (every table, cache bank at the paper's 1–8 KB) and what `tables -q
// -table 6s` prints (Table 6 at the scaled 128 B–1 KB caches).
var tablesGoldens = []struct {
	path  string
	sizes []int64 // the cache bank; nil is the paper's
	write func(*bench.Results, io.Writer)
}{
	{filepath.Join("testdata", allTables), nil,
		func(r *bench.Results, w io.Writer) { r.WriteAll(w, true) }},
	{filepath.Join("testdata", scaledTables), []int64{128, 256, 512, 1024},
		(*bench.Results).Table6},
}

// TestTablesGolden pins the rendered paper tables byte for byte: a change
// to any renderer, or to a measurement behind it, fails here.
// EXPERIMENTS.md's measured columns are checked against these files
// (TestExperimentsMatchTables). Regenerate with REPRO_GEN_GOLDENS=1 after
// an intentional change.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("two full 168-cell grids; skipped in -short")
	}
	pool := newPool(t, runtime.GOMAXPROCS(0))
	for _, g := range tablesGoldens {
		res, err := bench.RunGrid(context.Background(), bench.GridConfig{
			Caches: true, CacheSizes: g.sizes, Pool: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		g.write(res, &got)
		matchGolden(t, g.path, got.Bytes())
	}
}
