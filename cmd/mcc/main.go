// Command mcc is the compiler driver: it compiles a mini-C source file for
// one of the simulated machines at one of the paper's optimization levels
// and prints the resulting RTLs (optionally before optimization too).
//
//	mcc -machine sparc -level jumps prog.c
//	mcc -dump-naive prog.c            # show the front end's raw RTLs
//	mcc -S prog.c                     # emit target assembly syntax
//	mcc -listing -machine x86 prog.c  # encoded listing: offsets, sizes, short/near forms
//	mcc -dot prog.c | dot -Tsvg ...   # flow graph in Graphviz form
//	mcc -trace t.jsonl -stats prog.c  # telemetry: pass spans + decisions
//	mcc -explain prog.c               # replication narrative on stderr
//
// Running the program and measuring it is cmd/ease's job
// (ease -file prog.c -in input.txt).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/replicate"
)

func main() {
	machName := flag.String("machine", "68020",
		"target machine: "+strings.Join(machine.Names(), ", "))
	levelName := flag.String("level", "jumps", "optimization level: simple, loops, jumps or dups")
	dumpNaive := flag.Bool("dump-naive", false, "print the unoptimized RTLs and exit")
	emitAsm := flag.Bool("S", false, "emit target assembly syntax instead of RTLs")
	emitListing := flag.Bool("listing", false, "emit an encoded assembly listing (byte offsets and sizes from internal/encode)")
	emitDot := flag.Bool("dot", false, "emit the flow graph in Graphviz dot form")
	maxSeq := flag.Int("maxseq", 0, "cap replication sequences at this many RTLs")
	traceFile := flag.String("trace", "", "write a telemetry trace (pass spans, replication decisions) to this file")
	traceFormat := flag.String("trace-format", "jsonl", "trace format: jsonl (one event per line) or chrome (about://tracing)")
	stats := flag.Bool("stats", false, "print optimization statistics to stderr")
	explain := flag.Bool("explain", false, "print a human-readable pass/replication narrative to stderr")
	verifyEach := flag.Bool("verify-each", false, "run the semantic IR verifier after every pipeline pass; violations (attributed to the offending pass) abort with exit 1")
	tvFlag := flag.Bool("tv", false, "validate every applied duplication with the translation validator; rejected certificates abort with exit 1")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mcc [flags] file.c")
		flag.PrintDefaults()
		os.Exit(2)
	}
	// Every flag is checked before the file is read, so a bad value is a
	// usage error with every mode, -dump-naive included.
	m, err := machine.ByName(*machName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcc:", err)
		os.Exit(2)
	}
	lv, err := pipeline.ParseLevel(*levelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcc:", err)
		os.Exit(2)
	}
	if err := replicate.CheckMaxSeq(*maxSeq); err != nil {
		fmt.Fprintln(os.Stderr, "mcc:", err)
		os.Exit(2)
	}
	if *traceFormat != "jsonl" && *traceFormat != "chrome" {
		fmt.Fprintf(os.Stderr, "mcc: unknown trace format %q (want jsonl or chrome)\n", *traceFormat)
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcc:", err)
		os.Exit(1)
	}
	prog, err := mcc.Compile(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcc:", err)
		os.Exit(1)
	}
	if *dumpNaive {
		fmt.Print(prog)
		return
	}

	// Telemetry: an optional file sink (JSONL or Chrome trace_event) plus
	// an in-memory collector backing -explain. Nil when neither is asked
	// for, so the pipeline's instrumentation stays on its no-op path.
	var collector *obs.Collector
	if *explain {
		collector = &obs.Collector{}
	}
	var fileSink obs.Tracer
	var finishTrace func() error
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcc:", err)
			os.Exit(1)
		}
		if *traceFormat == "jsonl" {
			jw := obs.NewJSONLWriter(f)
			fileSink = jw
			finishTrace = func() error {
				if err := jw.Err(); err != nil {
					return err
				}
				return f.Close()
			}
		} else {
			cw := obs.NewChromeWriter(f)
			fileSink = cw
			finishTrace = func() error {
				if err := cw.Close(); err != nil {
					return err
				}
				return f.Close()
			}
		}
	}
	var tracer obs.Tracer
	if collector != nil {
		tracer = obs.Multi(collector, fileSink)
	} else if fileSink != nil {
		tracer = fileSink
	}

	st := pipeline.Optimize(prog, pipeline.Config{
		Machine: m,
		Level:   lv,
		Spec: pipeline.Spec{
			Replication: replicate.Options{MaxSeqRTLs: *maxSeq},
			VerifyEach:  *verifyEach,
			TV:          *tvFlag,
		},
		Tracer: tracer,
	})
	if len(st.Verify) > 0 {
		for _, v := range st.Verify {
			fmt.Fprintln(os.Stderr, "mcc:", v.String())
		}
		os.Exit(1)
	}
	switch {
	case *emitListing:
		if err := asm.EmitListing(os.Stdout, prog, m); err != nil {
			fmt.Fprintln(os.Stderr, "mcc:", err)
			os.Exit(1)
		}
	case *emitAsm:
		if err := asm.Emit(os.Stdout, prog, m); err != nil {
			fmt.Fprintln(os.Stderr, "mcc:", err)
			os.Exit(1)
		}
	case *emitDot:
		for _, f := range prog.Funcs {
			fmt.Print(cfg.Dot(f))
		}
	default:
		fmt.Print(prog)
	}
	fmt.Printf("; %s/%s: %d instructions, %d unconditional jumps (%d indirect), %d branches, %d no-ops\n",
		m.Name, lv, st.StaticInsts, st.StaticJumps, st.StaticIndirect, st.StaticBranches, st.StaticNops)
	if *stats {
		fmt.Fprintf(os.Stderr, "mcc: %d pipeline iterations; replication: %d applied, %d jumps-to-next deleted, %d rollbacks, %d RTLs copied\n",
			st.Iterations, st.Replication.Replications, st.Replication.JumpsDeleted,
			st.Replication.Rollbacks, st.Replication.RTLsCopied)
	}
	if collector != nil {
		obs.Explain(os.Stderr, collector.Events())
	}
	if finishTrace != nil {
		if err := finishTrace(); err != nil {
			fmt.Fprintln(os.Stderr, "mcc:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mcc: trace written to %s\n", *traceFile)
	}
}
