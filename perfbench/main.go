// Command perfbench is the repository's benchmark. It drives the
// compiler's layers through their public functions on one seeded workload
// and prints its metrics as one JSON line:
//
//	perfbench --workload paper-tables --seed 1 --seconds 24 --trace 0
//
// Workloads (see README.md for why each exists and what it should
// move):
//
//	paper-tables  the 168 cells of Tables 4–6, one at a time
//	mccd-mix      a seeded request stream against an in-process mccd
//	fuzz-oracle   the differential oracle over a fixed band of generator seeds
//
// A workload is a fixed pass of ops made from the seed. The timed loop
// runs whole passes until --seconds have passed, so every count metric is
// a per-pass total that must repeat exactly. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the untraced loop for half the time,
// then the same passes again with a span at every layer boundary for the
// other half, and reports the per-layer metrics, including the tracing
// overhead. Spans go to
// .bench_build/spans/<workload>-seed<n>.jsonl.
//
// Exit status: 0 when a result was printed (failed output checks show in
// it), 1 when the run could not complete, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/mcc"
	"repro/internal/vm"
)

// metricDef names one metric, its unit and which direction is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run. Wall-clock throughput and
// latency are not among them: steal on a shared 2-vCPU host stretched the
// wall time of identical passes by up to 70% (CPU time by up to 20%), so
// no bound could hold them. The traced run reports them as wall.*.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"dyn_insts", "count", "lower"},
	{"dyn_jumps", "count", "lower"},
	{"dyn_branches", "count", "lower"},
	{"code_bytes", "bytes", "lower"},
	{"icache_misses", "count", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// passNames are the pass spans the pipeline emits.
var passNames = []string{
	"legalize", "branch-chaining", "dead-code", "reorder-blocks", "replicate",
	"promote-locals", "cse", "dead-variables", "code-motion",
	"strength-reduction", "fold-constants", "instruction-selection",
	"fold-branches", "delete-jumps-to-next", "merge-blocks",
	"lower-jump-tables", "regalloc", "delay-slots",
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"vm.calls", "count", "lower"},
		{"vm.busy_ms", "ms", "lower"},
		{"vm.insts", "count", "lower"},
		{"vm.minsts_per_s", "Minst/s", "higher"},
		{"vm.setup_ms", "ms", "lower"},
		{"cache.fetches", "count", "lower"},
		{"cache.busy_ms", "ms", "lower"},
		{"cache.mfetches_per_s", "Mfetch/s", "higher"},
		{"pipeline.calls", "count", "lower"},
		{"pipeline.busy_ms", "ms", "lower"},
		{"pipeline.rtls_in", "count", "lower"},
		{"pipeline.rtls_out", "count", "lower"},
		{"pipeline.iterations", "count", "lower"},
		{"pipeline.allocs", "count", "lower"},
	}
	for _, p := range passNames {
		ms = append(ms, metricDef{"pass." + p + ".self_ms", "ms", "lower"})
	}
	return append(ms, []metricDef{
		{"replicate.replications", "count", "higher"},
		{"replicate.jumps_deleted", "count", "higher"},
		{"replicate.rollbacks", "count", "lower"},
		{"replicate.rtls_copied", "count", "lower"},
		{"replicate.branches_folded", "count", "higher"},
		{"replicate.useful_ratio", "ratio", "higher"},
		{"tv.certs", "count", "lower"},
		{"tv.busy_ms", "ms", "lower"},
		{"tv.rejections", "count", "lower"},
		{"verify.calls", "count", "lower"},
		{"verify.busy_ms", "ms", "lower"},
		{"encode.busy_ms", "ms", "lower"},
		{"encode.passes", "count", "lower"},
		{"encode.promotions", "count", "lower"},
		{"asm.busy_ms", "ms", "lower"},
		{"asm.bytes", "bytes", "lower"},
		{"mcc.calls", "count", "lower"},
		{"mcc.busy_ms", "ms", "lower"},
		{"mcc.rtls_out", "count", "lower"},
		{"difftest.gen_ms", "ms", "lower"},
		{"difftest.cells", "count", "lower"},
		{"difftest.violations", "count", "lower"},
		{"service.requests", "count", "higher"},
		{"service.errors", "count", "lower"},
		{"service.hit_ratio", "ratio", "higher"},
		{"service.hit_p50_ms", "ms", "lower"},
		{"service.miss_p50_ms", "ms", "lower"},
		{"service.queue_wait_p50_ms", "ms", "lower"},
		{"service.http_ms_per_req", "ms", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"runtime.gc_cpu_ms", "ms", "lower"},
		{"runtime.alloc_mb", "MiB", "lower"},
		{"runtime.mallocs", "count", "lower"},
		{"wall.ops_per_s", "1/s", "higher"},
		{"wall.latency_p50_ms", "ms", "lower"},
		{"wall.latency_tail_ms", "ms", "lower"},
		{"trace.overhead_pct", "%", "lower"},
	}...)
}()

// units maps every declared metric to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[m.name] = m.unit
	}
	return u
}()

// workload is one benchmark workload: a fixed pass of ops made from the
// seed.
type workload interface {
	// setup builds the seeded inputs and the reference outputs, starts
	// what the ops need and warms up.
	setup() error
	// passOps is the number of ops in one pass.
	passOps() int
	// pass runs one pass; tr is nil in untraced runs.
	pass(tr *tracer) (*passResult, error)
	// traceExtra adds per-layer measurements taken after the traced loop.
	traceExtra(tr *tracer) error
	// describe is a one-line summary of the pass for the log.
	describe() string
}

// counter is implemented by a workload whose ops cannot total the count
// metrics themselves (difftest.Check returns only a verdict). The counts
// of its first pass are taken after the timed loop.
type counter interface {
	countKept() counts
}

// passResult is one pass's outcome: one latency sample per op (ms), the
// ops whose outputs failed their checks, and the pass's count totals.
type passResult struct {
	lat    []float64
	failed int
	counts counts
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "paper-tables":
		return newPaperTables(seed, nil), nil
	case "mccd-mix":
		return newMccdMix(seed, mccdPassRequests), nil
	case "fuzz-oracle":
		return newFuzzOracle(seed, fuzzSeeds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-tables, mccd-mix or fuzz-oracle)", name)
}

// window is one timed loop: whole passes until the time is up.
type window struct {
	passes int
	lat    []float64
	failed int
	counts counts
	wall   time.Duration
	cpu    time.Duration
}

func (w *window) ops() int { return len(w.lat) }

func (w *window) opsPerSec() float64 { return float64(w.ops()) / w.wall.Seconds() }

// measure runs whole passes of wl until d has passed (at least one). A
// pass whose counts differ from the first pass's is a determinism bug:
// its ops count as failed.
func measure(wl workload, tr *tracer, d time.Duration) (*window, error) {
	var w window
	start, cpu0 := time.Now(), cpuTime()
	for w.passes == 0 || time.Since(start) < d {
		ps, pc := time.Now(), cpuTime()
		pr, err := wl.pass(tr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %d ops in %.3fs wall, %.3fs CPU\n",
			w.passes+1, len(pr.lat), time.Since(ps).Seconds(), (cpuTime() - pc).Seconds())
		if w.passes == 0 {
			w.counts = pr.counts
		} else if pr.counts != w.counts {
			fmt.Fprintf(os.Stderr, "perfbench: pass %d counts %+v differ from pass 1 %+v\n",
				w.passes+1, pr.counts, w.counts)
			pr.failed = len(pr.lat)
		}
		w.passes++
		w.lat = append(w.lat, pr.lat...)
		w.failed += pr.failed
	}
	w.wall, w.cpu = time.Since(start), cpuTime()-cpu0
	return &w, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 5

func run(name string, seed int64, d time.Duration, traced bool) (*result, error) {
	// Set-up time is process CPU time, like cpu_ms_per_op: wall time of
	// the same set-up ranged from 0.5 to 1.3 s with the host's steal.
	var setups []float64
	var wl workload
	for i := 0; i < setupRepeats; i++ {
		start := cpuTime()
		var err error
		if wl, err = newWorkload(name, seed); err != nil {
			return nil, err
		}
		if err := wl.setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, (cpuTime() - start).Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", name, seed, wl.describe())

	// A traced run splits its time between an untraced and a traced loop,
	// so it takes about as long as an untraced run.
	loop := d
	if traced {
		loop = d / 2
	}
	rt0 := readRuntime()
	win, err := measure(wl, nil, loop)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	if c, ok := wl.(counter); ok {
		win.counts = c.countKept()
	}
	tailP := tailPercentile(wl.passOps())
	fmt.Fprintf(os.Stderr, "perfbench: untraced: %d passes, %d ops in %.2fs, tail at p%g\n",
		win.passes, win.ops(), win.wall.Seconds(), tailP)

	res := &result{Attempted: win.ops(), Failed: win.failed, Metrics: map[string]metric{}}
	// set reports one declared metric; a layer the workload never enters
	// reads 0 (its rates would be 0/0).
	set := func(name string, v float64) {
		unit, ok := units[name]
		if !ok {
			panic("perfbench: undeclared metric " + name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{v, unit}
	}

	if !traced {
		set("setup_s", median(setups))
		set("cpu_ms_per_op", float64(win.cpu.Microseconds())/1000/float64(win.ops()))
		set("peak_rss_mb", peakRSSMiB())
		set("dyn_insts", float64(win.counts.Insts))
		set("dyn_jumps", float64(win.counts.Jumps))
		set("dyn_branches", float64(win.counts.Branches))
		set("code_bytes", float64(win.counts.CodeBytes))
		set("icache_misses", float64(win.counts.ICacheMisses))
		set("ok_ratio", float64(win.ops()-win.failed)/float64(win.ops()))
		res.Correct = win.failed == 0
		return res, res.complete(endToEnd)
	}

	tr := newTracer()
	twin, err := measure(wl, tr, loop)
	if err != nil {
		return nil, err
	}
	if err := wl.traceExtra(tr); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced: %d passes, %d ops in %.2fs\n",
		twin.passes, twin.ops(), twin.wall.Seconds())
	res.Attempted += twin.ops()
	res.Failed += twin.failed
	res.Correct = res.Failed == 0

	vmSetup, err := vmSetupMS()
	if err != nil {
		return nil, err
	}
	busy, self := tr.layerTimes()
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	c := tr.counts
	set("vm.calls", c["vm.calls"])
	set("vm.busy_ms", ms(busy["vm"]))
	set("vm.insts", c["vm.insts"])
	set("vm.minsts_per_s", c["vm.insts"]/busy["vm"].Seconds()/1e6)
	set("vm.setup_ms", vmSetup)
	set("cache.fetches", c["cache.fetches"])
	set("cache.busy_ms", ms(busy["cache"]))
	set("cache.mfetches_per_s", c["cache.fetches"]/busy["cache"].Seconds()/1e6)
	for _, n := range []string{"calls", "rtls_in", "rtls_out", "iterations", "allocs"} {
		set("pipeline."+n, c["pipeline."+n])
	}
	set("pipeline.busy_ms", ms(busy["pipeline"]))
	for _, p := range passNames {
		set("pass."+p+".self_ms", ms(self["pass."+p]))
	}
	for _, n := range []string{"replications", "jumps_deleted", "rollbacks", "rtls_copied", "branches_folded"} {
		set("replicate."+n, c["replicate."+n])
	}
	applied := c["replicate.replications"] + c["replicate.branches_folded"]
	set("replicate.useful_ratio", applied/(applied+c["replicate.rollbacks"]))
	set("tv.certs", c["tv.certs"])
	set("tv.busy_ms", ms(busy["tv"]))
	set("tv.rejections", c["tv.rejections"])
	set("verify.calls", c["verify.calls"])
	set("verify.busy_ms", ms(busy["verify"]))
	set("encode.busy_ms", ms(busy["encode"]))
	set("encode.passes", c["encode.passes"])
	set("encode.promotions", c["encode.promotions"])
	set("asm.busy_ms", ms(busy["asm"]))
	set("asm.bytes", c["asm.bytes"])
	set("mcc.calls", c["mcc.calls"])
	set("mcc.busy_ms", ms(busy["mcc"]))
	set("mcc.rtls_out", c["mcc.rtls_out"])
	set("difftest.gen_ms", ms(busy["difftest.gen"]))
	set("difftest.cells", c["difftest.cells"])
	set("difftest.violations", c["difftest.violations"])
	set("service.requests", c["service.requests"])
	set("service.errors", c["service.errors"])
	set("service.hit_ratio", c["service.hit_ratio"])
	for _, n := range []string{"hit_p50_ms", "miss_p50_ms", "queue_wait_p50_ms"} {
		v := 0.0
		if xs := tr.samples["service."+n]; len(xs) > 0 {
			v = median(xs)
		}
		set("service."+n, v)
	}
	set("service.http_ms_per_req", c["service.http_ms"]/c["service.requests"])
	set("runtime.gc_cycles", rt1.gcCycles-rt0.gcCycles)
	set("runtime.gc_cpu_ms", (rt1.gcCPU-rt0.gcCPU)*1000)
	set("runtime.alloc_mb", (rt1.allocBytes-rt0.allocBytes)/(1<<20))
	set("runtime.mallocs", rt1.mallocs-rt0.mallocs)
	set("wall.ops_per_s", win.opsPerSec())
	set("wall.latency_p50_ms", median(win.lat))
	set("wall.latency_tail_ms", percentile(win.lat, tailP))
	set("trace.overhead_pct", 100*(1-twin.opsPerSec()/win.opsPerSec()))

	path := spansFile(name, seed)
	if err := tr.writeSpans(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return res, res.complete(perLayer)
}

// complete reports an error unless the result holds every metric of defs
// and nothing else: a line that lacks a declared metric is not a result.
func (r *result) complete(defs []metricDef) error {
	for _, m := range defs {
		if _, ok := r.Metrics[m.name]; !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(r.Metrics), len(defs))
	}
	return nil
}

// vmSetupMS is the median wall time of running an empty program: the
// VM's fixed per-run cost (mostly clearing its default data memory).
func vmSetupMS() (float64, error) {
	prog, err := mcc.Compile("int main() { return 0; }")
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < 7; i++ {
		start := time.Now()
		if _, err := vm.Run(prog, vm.Config{}); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(xs), nil
}

func main() {
	name := flag.String("workload", "", "workload: paper-tables, mccd-mix or fuzz-oracle")
	seed := flag.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Float64("seconds", 24, "run whole passes until this many seconds have passed")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	if flag.NArg() != 0 || *name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
