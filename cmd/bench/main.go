// Command bench measures and maintains the repository's performance
// baseline, BENCH_baseline.json:
//
//	bench                    measure and write BENCH_baseline.json
//	bench -out FILE          measure and write FILE
//	bench -check FILE        validate an existing baseline file and exit
//	bench -gate FILE         re-measure the suite, print the Markdown delta
//	                         table on stdout, and fail (exit 1) when a level
//	                         leaves the band around FILE's suite rows
//
// The baseline records compile throughput (ns/op, allocs/op, RTLs/sec) of
// the Table-3 suite per pipeline level, plus the encoded layout of the
// suite on every machine at every level. CI validates the committed file
// with -check and holds the suite to its band with -gate (appending the
// table to the job summary itself); TestEncodedMatchesBaseline in
// internal/bench compares the encoded section exactly. Regeneration is
// manual and documented in docs/PERFORMANCE.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

func main() {
	out := flag.String("out", "BENCH_baseline.json", "write the measured baseline to this file")
	check := flag.String("check", "", "validate this baseline file and exit (no measurement)")
	gate := flag.String("gate", "", "re-measure the suite and compare it against this baseline's band; exit 1 on regression")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	if *check != "" {
		bl, err := bench.LoadBaseline(*check)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok (schema %d, %d suite levels, %d encoded cells)\n",
			*check, bl.Schema, len(bl.Suite), len(bl.Encoded))
		return
	}

	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}
	if *gate != "" {
		runGate(*gate, progress)
		return
	}

	bl, err := bench.RunBaseline(progress)
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
	for _, s := range bl.Suite {
		fmt.Printf("suite %-8s %12d ns/op %10.0f RTLs/sec\n", s.Level, s.NsPerOp, s.RTLsPerSec)
	}
	fmt.Printf("wrote %s\n", *out)
}

// runGate is the CI perf-regression gate: re-measure the suite compile
// benchmarks, compare them against the committed suite rows, print the
// delta table on stdout and the verdict on stderr, and exit 1 on any
// regression.
func runGate(path string, progress io.Writer) {
	bl, err := bench.LoadBaseline(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fresh, err := bench.RunSuite(progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	rows, gateErr := bl.Gate(fresh)
	if err := bench.WriteGateSummary(os.Stdout, rows); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if gateErr != nil {
		fmt.Fprintln(os.Stderr, gateErr) // Gate's errors carry the "bench:" prefix
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perf gate passed against %s\n", path)
}
