// Command tables regenerates the paper's experimental tables over the
// Table-3 test set:
//
//	tables -list            print Table 3 (the test set)
//	tables -table 4         Table 4 (unconditional-jump fractions)
//	tables -table 5         Table 5 (static/dynamic instruction counts)
//	tables -table 6         Table 6 (cache miss ratio and fetch cost)
//	tables -table 6s        Table 6 at {128,256,512,1024}-byte caches
//	tables -table branchdist  §5.2 instructions-between-branches stats
//	tables -table cap       §6 ablation: replication length cap sweep
//	tables                  everything (including the cache simulations)
//	tables -verify-each -tv everything, with every pass verified and every
//	                        duplication proof-checked (same bytes, or exit 1)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/bench"
	"repro/internal/ease"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/replicate"
	"repro/internal/service"
	"repro/internal/verify"
)

func main() {
	list := flag.Bool("list", false, "print the test set (Table 3) and exit")
	table := flag.String("table", "", "which table to produce: 4, 5, 6, 6s, branchdist, cap (default: all)")
	quiet := flag.Bool("q", false, "suppress per-cell progress output")
	asJSON := flag.Bool("json", false, "emit the raw measurement grid as JSON instead of tables")
	heuristic := flag.String("heuristic", "shortest", "JUMPS sequence heuristic: shortest, returns, loops")
	maxSeq := flag.Int("maxseq", 0, "cap replication sequences at this many RTLs (0 = unlimited)")
	indirect := flag.Bool("indirect", false, "allow sequences terminated by indirect jumps (§6 extension)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "parallel measurement workers (1 = one cell at a time); the tables are identical for every value")
	verifyEach := flag.Bool("verify-each", false, "run the semantic IR verifier after every pipeline pass; violations (attributed to the offending pass) abort with exit 1")
	tvFlag := flag.Bool("tv", false, "validate every applied duplication with the translation validator; rejected certificates abort with exit 1")
	flag.Parse()

	// Every flag is checked before -list prints, so a bad value is a usage
	// error in every mode.
	write, known := tableWriters[*table]
	if !known && *table != "cap" {
		fmt.Fprintf(os.Stderr, "tables: unknown table %q (want 4, 5, 6, 6s, branchdist or cap)\n", *table)
		os.Exit(2)
	}
	h, err := replicate.ParseHeuristic(*heuristic)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(2)
	}
	if err := replicate.CheckMaxSeq(*maxSeq); err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(2)
	}
	if *list {
		bench.Table3(os.Stdout)
		return
	}
	spec := pipeline.Spec{
		Replication: replicate.Options{Heuristic: h, MaxSeqRTLs: *maxSeq, AllowIndirect: *indirect},
		VerifyEach:  *verifyEach,
		TV:          *tvFlag,
	}

	if *table == "cap" {
		capSweep(spec, *quiet)
		return
	}

	needCaches := *table == "" || *table == "6" || *table == "6s"
	var progress *os.File
	if !*quiet {
		progress = os.Stderr
	}
	// The Table-3 rewrites are roughly a tenth of the original programs'
	// static size, so the paper's small-cache effect (replication hurting a
	// cache the program barely fits) appears at proportionally smaller
	// caches; -table 6s runs the same experiment at {128,256,512,1024}
	// bytes.
	var sizes []int64
	if *table == "6s" {
		sizes = []int64{128, 256, 512, 1024}
	}
	// The grid runs through the same worker pool as cmd/mccd; the table
	// bytes are identical for any -j (cells have preassigned positions).
	pool := service.NewPool(*jobs, 0)
	defer pool.Shutdown(context.Background())
	res, err := bench.RunGrid(context.Background(), bench.GridConfig{
		Caches:     needCaches,
		CacheSizes: sizes,
		Spec:       spec,
		Progress:   progress,
		Pool:       pool,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		type jsonCell struct {
			Program   string
			Machine   string
			Level     string
			Static    pipeline.Stats
			Dynamic   interface{}
			CodeBytes int64
			Caches    interface{} `json:",omitempty"`
		}
		out := make([]jsonCell, 0, len(res.Cells))
		for _, c := range res.Cells {
			out = append(out, jsonCell{
				Program: c.Program, Machine: c.Machine, Level: c.Level.String(),
				Static: c.Run.Static, Dynamic: c.Run.Dynamic,
				CodeBytes: c.Run.CodeBytes, Caches: c.Run.Caches,
			})
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		return
	}
	write(res, os.Stdout)
}

// tableWriters renders each -table name from the measured grid; "cap" is
// not among them because it runs its own sweep (capSweep).
var tableWriters = map[string]func(*bench.Results, io.Writer){
	"":           func(r *bench.Results, w io.Writer) { r.WriteAll(w, true) },
	"4":          (*bench.Results).Table4,
	"5":          (*bench.Results).Table5,
	"6":          (*bench.Results).Table6,
	"6s":         (*bench.Results).Table6,
	"branchdist": (*bench.Results).BranchDistance,
}

// capSweep implements the §6 ablation: sweep the replication length cap and
// report code growth vs dynamic savings on the SPARC. The SIMPLE side does
// not depend on the cap, so each program's SIMPLE cell is measured once.
func capSweep(spec pipeline.Spec, quiet bool) {
	caps := []int{0, 4, 8, 16, 32, 64}
	fmt.Printf("Replication length cap sweep (SPARC, JUMPS vs SIMPLE)\n")
	fmt.Printf("%8s %14s %14s\n", "cap", "static-change", "dynamic-change")
	progs := bench.Programs()
	var statS, dynS int64
	for _, p := range progs {
		rs := measureSPARC(p, pipeline.Simple, spec)
		statS += int64(rs.Static.StaticInsts)
		dynS += rs.Dynamic.Exec
	}
	for _, c := range caps {
		o := spec
		o.Replication.MaxSeqRTLs = c
		var statJ, dynJ int64
		for _, p := range progs {
			rj := measureSPARC(p, pipeline.Jumps, o)
			statJ += int64(rj.Static.StaticInsts)
			dynJ += rj.Dynamic.Exec
			if !quiet {
				fmt.Fprintf(os.Stderr, "cap=%d %s done\n", c, p.Name)
			}
		}
		capName := fmt.Sprint(c)
		if c == 0 {
			capName = "none"
		}
		fmt.Printf("%8s %+13.2f%% %+13.2f%%\n", capName,
			ease.PercentChange(statS, statJ), ease.PercentChange(dynS, dynJ))
	}
}

// measureSPARC measures one cell of the cap sweep. A measurement error, a
// verify-each violation or a TV rejection ends the run with exit 1.
func measureSPARC(p bench.Program, lv pipeline.Level, spec pipeline.Spec) *ease.Run {
	run, err := ease.Measure(ease.Request{
		Name: p.Name, Source: p.Source, Input: []byte(p.Input),
		Machine: machine.SPARC, Level: lv, Spec: spec,
	})
	if err == nil {
		if verr := verify.Error(run.Static.Verify); verr != nil {
			err = fmt.Errorf("%s (SPARC/%s): %w", p.Name, lv, verr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	return run
}
