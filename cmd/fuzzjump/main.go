// Command fuzzjump runs offline differential-fuzzing campaigns against the
// SIMPLE/LOOPS/JUMPS pipeline: it generates seeded mini-C programs, checks
// each one with the internal/difftest oracle on every registered machine,
// and reports every violation. Unlike the 60-second `go test -fuzz` smoke
// in CI, fuzzjump is built for long unattended runs: it parallelizes across
// workers, persists failing programs (and their minimized forms) to a
// corpus directory, and streams machine-readable findings as JSON Lines.
//
//	fuzzjump -duration 15m                     # nightly campaign
//	fuzzjump -count 500 -seed 1000             # seeds 1000..1499
//	fuzzjump -machines sparc -levels jumps     # restrict the matrix
//	fuzzjump -corpus out/ -report f.jsonl      # persist failures
//	fuzzjump -inject rollback                  # oracle self-test
//	fuzzjump -inject undo                      # undo-log self-test
//	fuzzjump -budget 60                        # bigger programs
//
// Exit status: 0 if the campaign found nothing, 1 if any seed produced a
// violation or every seed was skipped (its reference run trapped, so no
// cell was compared), 2 on usage errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/difftest"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/replicate"
)

// finding is one line of the -report JSONL stream: the oracle's typed
// violation plus the seed that produced it. Encoding the difftest.Violation
// directly keeps the report's kind field in lockstep with the
// difftest.Kind enum — there is no re-stringified copy to drift.
type finding struct {
	Seed int64 `json:"seed"`
	difftest.Violation
}

func main() {
	duration := flag.Duration("duration", 0, "run until this much time has passed (0 = use -count)")
	count := flag.Int64("count", 200, "number of seeds to check when -duration is 0")
	seed := flag.Int64("seed", 1, "first seed of the campaign")
	machines := flag.String("machines", strings.Join(machine.Names(), ","),
		"comma-separated target machines")
	levels := flag.String("levels", "simple,loops,jumps,dups", "comma-separated optimization levels")
	workers := flag.Int("j", 4, "parallel workers")
	corpus := flag.String("corpus", "", "directory to write failing programs to (<seed>.c, <seed>.min.c)")
	report := flag.String("report", "", "write one JSONL finding per violation to this file")
	minimize := flag.Bool("minimize", true, "with -corpus: also store a minimized reproducer")
	maxSteps := flag.Int64("maxsteps", 0, "VM step budget per execution (0 = oracle default)")
	budget := flag.Int("budget", 0, "generator statement budget per function (0 = generator default); larger programs stress step 1 harder")
	residual := flag.Bool("residual", false, "enable the opt-in residual-replicable-jump check")
	verifyEach := flag.Bool("verify-each", false, "run the semantic IR verifier after every pipeline pass, attributing violations to the offending pass")
	tvFlag := flag.Bool("tv", false, "validate every applied duplication with the translation validator; rejections surface as tv-rejection verdicts")
	inject := flag.String("inject", "", "fault injection for self-testing: 'rollback' disables the reducibility rollback (the oracle must catch it), 'undo' force-rolls-back every duplication (the undo log must restore byte-identically, so the oracle must stay green)")
	quiet := flag.Bool("q", false, "suppress per-interval progress output")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: fuzzjump [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// A negative count, step budget or statement budget would check
	// nothing, or check seeds whose every run traps, and still report a
	// clean campaign.
	for _, f := range []struct {
		name string
		v    int64
	}{{"count", *count}, {"maxsteps", *maxSteps}, {"budget", int64(*budget)}} {
		if f.v < 0 {
			fatal(2, fmt.Errorf("-%s %d: must not be negative", f.name, f.v))
		}
	}
	ms, err := parseMachines(*machines)
	if err != nil {
		fatal(2, err)
	}
	lvs, err := parseLevels(*levels)
	if err != nil {
		fatal(2, err)
	}
	var rep replicate.Options
	switch *inject {
	case "":
	case "rollback":
		rep.ForceKeepIrreducible = true
	case "undo":
		rep.ForceRollback = true
	default:
		fatal(2, fmt.Errorf("unknown -inject mode %q (want 'rollback' or 'undo')", *inject))
	}

	if *corpus != "" {
		if err := os.MkdirAll(*corpus, 0o755); err != nil {
			fatal(2, err)
		}
	}
	// The findings report encodes the oracle's typed violations directly
	// (one finding per line); writes happen under the result mutex below.
	// The flush is explicit, not deferred: the failure path below leaves
	// through os.Exit(1), which would skip a deferred Flush and truncate
	// the report exactly when it has findings in it.
	var reportEnc *json.Encoder
	reportClose := func() {}
	if *report != "" {
		rf, err := os.Create(*report)
		if err != nil {
			fatal(2, err)
		}
		rw := bufio.NewWriter(rf)
		reportEnc = json.NewEncoder(rw)
		reportClose = func() {
			if err := rw.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "fuzzjump: report:", err)
			}
			if err := rf.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fuzzjump: report:", err)
			}
		}
	}

	opts := difftest.Options{
		Machines:      ms,
		Levels:        lvs,
		Spec:          pipeline.Spec{Replication: rep, VerifyEach: *verifyEach, TV: *tvFlag},
		MaxSteps:      *maxSteps,
		Input:         []byte("fuzzjump"),
		CheckResidual: *residual,
	}

	// The seed feed: a monotone counter, drained by the workers until the
	// count is exhausted or the deadline passes.
	var next atomic.Int64
	next.Store(*seed)
	var deadline time.Time
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	take := func() (int64, bool) {
		s := next.Add(1) - 1
		if *duration > 0 {
			return s, time.Now().Before(deadline)
		}
		return s, s < *seed+*count
	}

	var (
		mu       sync.Mutex // serializes result handling and stderr
		checked  int64
		skipped  int64
		failures int64
	)
	handle := func(s int64, src string, v *difftest.Verdict) {
		mu.Lock()
		defer mu.Unlock()
		checked++
		if v.Skipped {
			skipped++
			fmt.Fprintf(os.Stderr, "fuzzjump: seed %d skipped: %s\n", s, v.SkipReason)
		}
		if !v.Failed() {
			return
		}
		failures++
		for _, vi := range v.Violations {
			fmt.Fprintf(os.Stderr, "fuzzjump: seed %d: %s\n", s, vi)
			if reportEnc != nil {
				if err := reportEnc.Encode(finding{Seed: s, Violation: vi}); err != nil {
					fmt.Fprintln(os.Stderr, "fuzzjump: report:", err)
				}
			}
		}
		if *corpus != "" {
			name := filepath.Join(*corpus, fmt.Sprintf("%d.c", s))
			if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "fuzzjump:", err)
			}
			if *minimize {
				// The shrink predicate re-runs the oracle many times; its
				// interior verdicts never reach the findings report because
				// only `handle` writes to it.
				min := difftest.Minimize(src, func(c string) bool {
					return difftest.Check(c, opts).Failed()
				}, difftest.MinOptions{MaxAttempts: 200})
				name := filepath.Join(*corpus, fmt.Sprintf("%d.min.c", s))
				if err := os.WriteFile(name, []byte(min), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "fuzzjump:", err)
				}
			}
		}
	}

	start := time.Now()
	stop := make(chan struct{})
	if !*quiet {
		go func() {
			tick := time.NewTicker(10 * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					mu.Lock()
					fmt.Fprintf(os.Stderr, "fuzzjump: %d seeds checked, %d skipped, %d failing, %s elapsed\n",
						checked, skipped, failures, time.Since(start).Round(time.Second))
					mu.Unlock()
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < max(*workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s, ok := take()
				if !ok {
					return
				}
				o := opts
				o.Seed = s
				src := difftest.GenerateWith(s, difftest.GenOptions{StmtBudget: *budget})
				handle(s, src, difftest.Check(src, o))
			}
		}()
	}
	wg.Wait()
	close(stop)

	fmt.Printf("fuzzjump: %d seeds checked in %s, %d skipped, %d failing\n",
		checked, time.Since(start).Round(time.Millisecond), skipped, failures)
	reportClose()
	if failures > 0 {
		os.Exit(1)
	}
	if checked > 0 && skipped == checked {
		fmt.Fprintln(os.Stderr, "fuzzjump: every seed was skipped, so nothing was compared")
		os.Exit(1)
	}
}

func parseMachines(s string) ([]*machine.Machine, error) {
	var ms []*machine.Machine
	for _, name := range strings.Split(s, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		m, err := machine.ByName(name)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("no machines selected")
	}
	return ms, nil
}

func parseLevels(s string) ([]pipeline.Level, error) {
	var lvs []pipeline.Level
	for _, name := range strings.Split(s, ",") {
		if strings.TrimSpace(name) == "" {
			continue
		}
		lv, err := pipeline.ParseLevel(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		lvs = append(lvs, lv)
	}
	if len(lvs) == 0 {
		return nil, fmt.Errorf("no levels selected")
	}
	return lvs, nil
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "fuzzjump:", err)
	os.Exit(code)
}
