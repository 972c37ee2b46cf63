// Command ease measures one program the way the paper's EASE environment
// did: it compiles a Table-3 program (by name) or a mini-C file, runs it,
// and reports static counts, dynamic counts and (optionally) the cache bank
// of Table 6.
//
//	ease -prog wc -machine sparc -level jumps -caches
//	ease -file myprog.c -in input.txt
//	ease -prog wc -trace t.jsonl -explain    # telemetry + narrative
//	ease -prog wc -fetchtrace fetches.txt    # fetch stream for cmd/cachesim
//
// The full Table-3 grid is cmd/tables' job.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/ease"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func main() {
	progName := flag.String("prog", "", "Table-3 program name (see `tables -list`)")
	file := flag.String("file", "", "mini-C source file (alternative to -prog)")
	inFile := flag.String("in", "", "input file (default: the program's canned input for -prog)")
	machName := flag.String("machine", "68020",
		"target machine: "+strings.Join(machine.Names(), ", "))
	levelName := flag.String("level", "jumps", "optimization level: simple, loops, jumps or dups")
	caches := flag.Bool("caches", false, "simulate the Table-6 instruction caches")
	showOutput := flag.Bool("output", false, "print the program's output")
	fetchTraceFile := flag.String("fetchtrace", "", "write the instruction-fetch trace (one `addr size` pair per line) to this file, for cmd/cachesim")
	traceFile := flag.String("trace", "", "write a JSONL telemetry trace (phase/pass spans, replication decisions, block profile) to this file")
	explain := flag.Bool("explain", false, "print a human-readable pass/replication narrative, hot blocks included, to stderr")
	quiet := flag.Bool("q", false, "suppress the per-cell progress line on stderr")
	verifyEach := flag.Bool("verify-each", false, "run the semantic IR verifier after every pipeline pass; violations (attributed to the offending pass) abort with exit 1")
	tvFlag := flag.Bool("tv", false, "validate every applied duplication with the translation validator; rejected certificates abort with exit 1")
	flag.Parse()

	// Every flag is checked before any file is read: a usage error exits 2
	// whatever the files hold.
	m, err := machine.ByName(*machName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ease:", err)
		os.Exit(2)
	}
	lv, err := pipeline.ParseLevel(*levelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ease:", err)
		os.Exit(2)
	}
	req := ease.Request{Spec: pipeline.Spec{VerifyEach: *verifyEach, TV: *tvFlag}, SimulateCaches: *caches}
	req.Machine, req.Level = m, lv
	switch {
	case *progName != "" && *file != "":
		fmt.Fprintln(os.Stderr, "ease: -prog and -file are exclusive")
		os.Exit(2)
	case *progName != "":
		p := bench.ProgramByName(*progName)
		if p == nil {
			fmt.Fprintf(os.Stderr, "ease: unknown program %q\n", *progName)
			os.Exit(2)
		}
		req.Name, req.Source, req.Input = p.Name, p.Source, []byte(p.Input)
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ease:", err)
			os.Exit(1)
		}
		req.Name, req.Source = *file, string(src)
	default:
		fmt.Fprintln(os.Stderr, "ease: need -prog or -file")
		os.Exit(2)
	}
	if *inFile != "" {
		in, err := os.ReadFile(*inFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ease:", err)
			os.Exit(1)
		}
		req.Input = in
	}

	// The fetch trace is flushed and closed explicitly at the end: a write
	// error (a full disk, say) must fail the run, not vanish in a defer.
	var finishFetchTrace func() error
	if *fetchTraceFile != "" {
		f, err := os.Create(*fetchTraceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ease:", err)
			os.Exit(1)
		}
		w := bufio.NewWriter(f)
		req.OnFetch = func(addr, size int64) {
			fmt.Fprintf(w, "%d %d\n", addr, size)
		}
		finishFetchTrace = func() error {
			err := w.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		}
	}

	// Telemetry sinks: a JSONL file for -trace, an in-memory collector for
	// -explain; nil when neither is requested.
	var collector *obs.Collector
	if *explain {
		collector = &obs.Collector{}
	}
	var jsonl *obs.JSONLWriter
	var traceOut *os.File
	if *traceFile != "" {
		traceOut, err = os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ease:", err)
			os.Exit(1)
		}
		jsonl = obs.NewJSONLWriter(traceOut)
	}
	if collector != nil && jsonl != nil {
		req.Tracer = obs.Multi(collector, jsonl)
	} else if collector != nil {
		req.Tracer = collector
	} else if jsonl != nil {
		req.Tracer = jsonl
	}

	start := time.Now()
	run, err := ease.Measure(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(run.Static.Verify) > 0 {
		for _, v := range run.Static.Verify {
			fmt.Fprintln(os.Stderr, "ease:", v.String())
		}
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "ease: measured %s × %s × %s in %s\n",
			req.Name, req.Machine.Name, lv, time.Since(start).Round(time.Millisecond))
	}
	if jsonl != nil {
		if err := jsonl.Err(); err == nil {
			err = traceOut.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ease:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceFile)
	}
	if *showOutput {
		os.Stdout.Write(run.Output)
		fmt.Println()
	}
	fmt.Printf("%s on %s at %s\n", req.Name, req.Machine.Name, lv)
	fmt.Printf("  static:  %d instructions (%d bytes), %d jumps (%d indirect), %d branches, %d no-ops\n",
		run.Static.StaticInsts, run.CodeBytes, run.Static.StaticJumps,
		run.Static.StaticIndirect, run.Static.StaticBranches, run.Static.StaticNops)
	fmt.Printf("  replication: %d applied, %d jumps-to-next deleted, %d rollbacks, %d RTLs copied\n",
		run.Static.Replication.Replications, run.Static.Replication.JumpsDeleted,
		run.Static.Replication.Rollbacks, run.Static.Replication.RTLsCopied)
	fmt.Printf("  dynamic: %d executed, %d uncond jumps (%.2f%%), %d branches (%d taken), %d no-ops\n",
		run.Dynamic.Exec, run.Dynamic.UncondJumps, 100*run.DynamicJumpFraction(),
		run.Dynamic.CondBranches, run.Dynamic.TakenBranches, run.Dynamic.Nops)
	fmt.Printf("  instructions between branches: %.2f\n", run.InstsBetweenBranches())
	if run.Caches != nil {
		fmt.Printf("  caches (direct-mapped, %d-byte lines, miss=%dx hit):\n",
			cache.DefaultLineBytes, cache.MissCost)
		for _, cs := range run.Caches {
			ctx := "ctx on "
			if !cs.CtxSwitches {
				ctx = "ctx off"
			}
			fmt.Printf("    %4dKb %s  miss ratio %6.3f%%  fetch cost %d\n",
				cs.SizeBytes/1024, ctx, 100*cs.MissRatio(), cs.Cost)
		}
	}
	if collector != nil {
		obs.Explain(os.Stderr, collector.Events())
	}
	if finishFetchTrace != nil {
		if err := finishFetchTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "ease:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fetch trace written to %s\n", *fetchTraceFile)
	}
}
