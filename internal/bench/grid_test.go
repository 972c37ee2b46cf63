package bench_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/pipeline"
	"repro/internal/service"
)

// subset picks a few fast Table-3 programs for grid tests.
func subset(t *testing.T, names ...string) []bench.Program {
	t.Helper()
	out := make([]bench.Program, 0, len(names))
	for _, n := range names {
		p := bench.ProgramByName(n)
		if p == nil {
			t.Fatalf("unknown program %q", n)
		}
		out = append(out, *p)
	}
	return out
}

// newPool starts a service worker pool that the test shuts down when it
// ends.
func newPool(t *testing.T, workers int) *service.Pool {
	t.Helper()
	pool := service.NewPool(workers, 0)
	t.Cleanup(func() { pool.Shutdown(context.Background()) })
	return pool
}

// TestRunGridParallelMatchesSequential renders the full table set from a
// 1-worker pool run (one cell at a time, in grid order) and a 4-worker
// pool run and requires byte identity — the acceptance bar for the -j
// flag.
func TestRunGridParallelMatchesSequential(t *testing.T) {
	progs := subset(t, "queens", "sieve", "bubblesort")
	seq, err := bench.RunGrid(context.Background(), bench.GridConfig{Programs: progs, Pool: newPool(t, 1)})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := bench.RunGrid(context.Background(), bench.GridConfig{Programs: progs, Pool: newPool(t, 4)})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	var a, b bytes.Buffer
	seq.WriteAll(&a, false)
	par.WriteAll(&b, false)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("parallel tables differ from sequential:\n--- seq ---\n%s\n--- par ---\n%s", a.String(), b.String())
	}
	// Cell order itself is deterministic too.
	for i := range seq.Cells {
		s, p := seq.Cells[i], par.Cells[i]
		if s.Program != p.Program || s.Machine != p.Machine || s.Level != p.Level {
			t.Fatalf("cell %d order differs: %v vs %v", i, s, p)
		}
		if s.Run.Dynamic != p.Run.Dynamic || !reflect.DeepEqual(s.Run.Static, p.Run.Static) {
			t.Fatalf("cell %d measurements differ", i)
		}
	}
}

// TestRunGridProgressSerialized routes progress through a plain
// bytes.Buffer (not concurrency-safe by itself) from a 4-worker run;
// -race verifies RunGrid serializes the writes, and every line must be
// complete.
func TestRunGridProgressSerialized(t *testing.T) {
	var progress bytes.Buffer
	_, err := bench.RunGrid(context.Background(), bench.GridConfig{
		Programs: subset(t, "queens", "sieve"),
		Pool:     newPool(t, 4),
		Progress: &progress,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 programs × 3 machines × 4 levels.
	lines := bytes.Split(bytes.TrimRight(progress.Bytes(), "\n"), []byte("\n"))
	if len(lines) != 24 {
		t.Fatalf("progress lines = %d, want 24", len(lines))
	}
	for _, ln := range lines {
		if !bytes.HasPrefix(ln, []byte("measured ")) {
			t.Fatalf("torn progress line: %q", ln)
		}
	}
}

// TestRunGridOnCell counts cell callbacks and checks they carry results.
func TestRunGridOnCell(t *testing.T) {
	var n int
	_, err := bench.RunGrid(context.Background(), bench.GridConfig{
		Programs: subset(t, "queens"),
		Pool:     newPool(t, 1),
		OnCell: func(c *bench.Cell) {
			n++
			if c.Run == nil || c.Run.Dynamic.Exec == 0 {
				t.Errorf("OnCell with empty run: %+v", c)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One program across the full 3-machine × 4-level grid.
	if n != 12 {
		t.Fatalf("OnCell calls = %d, want 12", n)
	}
}

// TestRunGridVerifyEach runs a slice of the grid with the semantic
// verifier after every pipeline pass and every applied duplication
// proof-checked by TV, as `tables -verify-each -tv` does: a healthy
// pipeline must survive every cell, and the measurements must match a
// plain run (verification observes, never rewrites).
func TestRunGridVerifyEach(t *testing.T) {
	progs := subset(t, "queens", "sieve")
	pool := newPool(t, 1)
	plain, err := bench.RunGrid(context.Background(), bench.GridConfig{Programs: progs, Pool: pool})
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	verified, err := bench.RunGrid(context.Background(), bench.GridConfig{
		Programs: progs,
		Spec:     pipeline.Spec{VerifyEach: true, TV: true},
		Pool:     pool,
	})
	if err != nil {
		t.Fatalf("verify-each + TV grid failed: %v", err)
	}
	for i := range plain.Cells {
		p, v := plain.Cells[i], verified.Cells[i]
		if p.Run.Dynamic != v.Run.Dynamic || p.Run.CodeBytes != v.Run.CodeBytes {
			t.Fatalf("cell %d: verify-each + TV changed the measurement", i)
		}
	}
}

// TestRunGridCancel aborts a run mid-flight.
func TestRunGridCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err := bench.RunGrid(ctx, bench.GridConfig{
		Pool: newPool(t, 1),
		OnCell: func(*bench.Cell) {
			n++
			if n == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestResultsGetIndexed exercises the map-backed Get, including the
// rebuild after Cells grows.
func TestResultsGetIndexed(t *testing.T) {
	res, err := bench.RunGrid(context.Background(), bench.GridConfig{
		Programs: subset(t, "queens", "sieve"),
		Pool:     newPool(t, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Get("sieve", "SPARC", pipeline.Jumps)
	if c == nil || c.Program != "sieve" || c.Machine != "SPARC" || c.Level != pipeline.Jumps {
		t.Fatalf("Get returned %+v", c)
	}
	if res.Get("sieve", "SPARC", pipeline.Loops) == c {
		t.Fatal("distinct levels returned the same cell")
	}
	if res.Get("wc", "SPARC", pipeline.Jumps) != nil {
		t.Fatal("Get found a program that was not measured")
	}
	// Append more cells by hand: the index must catch up.
	extra := res.Cells[0]
	extra.Program = "phantom"
	res.Cells = append(res.Cells, extra)
	if got := res.Get("phantom", extra.Machine, extra.Level); got == nil {
		t.Fatal("Get missed a cell appended after the index was built")
	}
}

// TestRunGridBadCacheSize runs a cell whose cache bank cannot be built
// (1000 bytes is not a power of two) through 1- and 2-worker pools: the
// cell's panic must come back as the grid's error, with no result. A grid
// without a pool is an error too.
func TestRunGridBadCacheSize(t *testing.T) {
	cfg := bench.GridConfig{
		Programs:   subset(t, "queens"),
		Caches:     true,
		CacheSizes: []int64{1000},
	}
	if res, err := bench.RunGrid(context.Background(), cfg); err == nil || res != nil || !strings.Contains(err.Error(), "Pool") {
		t.Fatalf("nil Pool: RunGrid = %v, %v; want the missing-Pool error and no result", res, err)
	}
	for _, workers := range []int{1, 2} {
		cfg.Pool = newPool(t, workers)
		res, err := bench.RunGrid(context.Background(), cfg)
		if err == nil || res != nil {
			t.Fatalf("%d workers: RunGrid = %v, %v; want an error and no result", workers, res, err)
		}
		if !strings.Contains(err.Error(), "bad geometry 1000") {
			t.Errorf("%d workers: err = %v, want the bank's geometry error", workers, err)
		}
	}
}
