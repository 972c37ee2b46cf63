// Command bench measures and maintains the repository's performance
// baseline, BENCH_baseline.json:
//
//	bench                    measure and write BENCH_baseline.json
//	bench -out FILE          measure and write FILE
//	bench -states N          size the stress function (default 300)
//	bench -check FILE        validate an existing baseline file and exit
//	bench -gate FILE         re-measure the suite and fail (exit 1) when a
//	                         level breaks FILE's committed floors
//	bench -tol F             widen the gate's floors by the fraction F
//	bench -summary FILE      append the gate's Markdown delta table to FILE
//	                         (the perf-gate job points this at
//	                         $GITHUB_STEP_SUMMARY)
//	bench -history FILE      additionally append the result to a JSONL
//	                         history file (one timestamped record per run)
//
// The baseline records compile throughput (ns/op, allocs/op, RTLs/sec) of
// the Table-3 suite per pipeline level, plus the stress-function compile,
// plus per-level acceptance floors. CI validates the committed file with
// -check and enforces the floors with -gate; regeneration is manual and
// documented in docs/PERFORMANCE.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	out := flag.String("out", "BENCH_baseline.json", "write the measured baseline to this file")
	check := flag.String("check", "", "validate this baseline file and exit (no measurement)")
	gate := flag.String("gate", "", "re-measure the suite and compare against this baseline's floors; exit 1 on regression")
	tol := flag.Float64("tol", 0, "gate tolerance band as a fraction (0.05 widens the floors by 5%)")
	summary := flag.String("summary", "", "with -gate: append the Markdown delta table to this file")
	states := flag.Int("states", bench.DefaultStressStates, "stress-function size in goto-machine states")
	history := flag.String("history", "", "append the measured baseline to this JSONL history file")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	if *check != "" {
		bl, err := bench.LoadBaseline(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok (schema %d, %d suite levels, %d floors, %d encoded cells, stress %d ns/op)\n",
			*check, bl.Schema, len(bl.Suite), len(bl.Floors), len(bl.Encoded), bl.Stress[0].NsPerOp)
		return
	}

	if *gate != "" {
		runGate(*gate, *tol, *summary, *quiet)
		return
	}

	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}
	bl, err := bench.RunBaseline(*states, progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if err := bl.WriteJSON(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if *history != "" {
		if err := bench.AppendHistory(*history, bl, time.Now()); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("appended to %s\n", *history)
	}
	for _, s := range bl.Suite {
		fmt.Printf("suite %-8s %12d ns/op %10.0f RTLs/sec\n", s.Level, s.NsPerOp, s.RTLsPerSec)
	}
	s := bl.Stress[0]
	fmt.Printf("stress %12d ns/op %10.0f RTLs/sec\n", s.NsPerOp, s.RTLsPerSec)
	fmt.Printf("wrote %s\n", *out)
}

// runGate is the CI perf-regression gate: re-measure the suite compile
// benchmarks, compare them against the committed floors, print (and
// optionally append) the delta table, and exit 1 on any regression.
func runGate(path string, tol float64, summary string, quiet bool) {
	bl, err := bench.LoadBaseline(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	var progress io.Writer
	if !quiet {
		progress = os.Stderr
	}
	fresh, err := bench.RunSuite(progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	rows, gateErr := bl.Gate(fresh, tol)
	if err := bench.WriteGateSummary(os.Stdout, rows, tol); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if summary != "" {
		f, err := os.OpenFile(summary, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			err = bench.WriteGateSummary(f, rows, tol)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if gateErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", gateErr)
		os.Exit(1)
	}
	fmt.Printf("perf gate passed against %s (tolerance %.0f%%)\n", path, 100*tol)
}
