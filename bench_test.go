// Benchmarks regenerating the data behind every table and figure of the
// paper. Each benchmark measures the full compile+optimize+execute cycle
// that produces its table's cells and reports the paper's headline numbers
// as custom metrics, so `go test -bench=.` both exercises and reproduces
// the evaluation. The full-grid tables are produced by `go run ./cmd/tables`.
package repro_test

import (
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/difftest"
	"repro/internal/ease"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/replicate"
	"repro/internal/vm"
)

// measure runs one cell, failing the benchmark on any error.
func measure(b *testing.B, prog *bench.Program, m *machine.Machine, lv pipeline.Level, opts replicate.Options, caches bool) *ease.Run {
	b.Helper()
	run, err := ease.Measure(ease.Request{
		Name: prog.Name, Source: prog.Source, Input: []byte(prog.Input),
		Machine: m, Level: lv, Spec: pipeline.Spec{Replication: opts}, SimulateCaches: caches,
	})
	if err != nil {
		b.Fatal(err)
	}
	return run
}

// BenchmarkTable1MidLoop reproduces the Table 1 scenario: a loop with its
// exit condition in the middle, 68020 RTLs, SIMPLE vs JUMPS. The metric
// jumps/iter is the per-iteration unconditional jumps JUMPS removes.
func BenchmarkTable1MidLoop(b *testing.B) {
	src := `
int x[2000];
int n = 1500;
int main() {
	int i;
	for (i = 0; i < 2000; i++)
		x[i] = i;
	i = 1;
	while (1) {
		if (i > n)
			break;
		x[i-1] = x[i];
		i++;
	}
	printint(x[0] + x[n-1]);
	return 0;
}`
	p := bench.Program{Name: "table1", Source: src}
	var simple, jumps *ease.Run
	for i := 0; i < b.N; i++ {
		simple = measure(b, &p, machine.M68020, pipeline.Simple, replicate.Options{}, false)
		jumps = measure(b, &p, machine.M68020, pipeline.Jumps, replicate.Options{}, false)
	}
	b.ReportMetric(float64(simple.Dynamic.UncondJumps), "jumps-simple")
	b.ReportMetric(float64(jumps.Dynamic.UncondJumps), "jumps-jumps")
	b.ReportMetric(100*float64(jumps.Dynamic.Exec-simple.Dynamic.Exec)/float64(simple.Dynamic.Exec), "dyn-change-%")
}

// BenchmarkTable2IfElse reproduces the Table 2 scenario: an if-then-else
// whose join is deferred so both paths return separately.
func BenchmarkTable2IfElse(b *testing.B) {
	src := `
int f(int i, int n) {
	if (i > 5)
		i = i / n;
	else
		i = i * n;
	return i;
}
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 5000; i++)
		s += f(i % 11, 3);
	printint(s);
	return 0;
}`
	p := bench.Program{Name: "table2", Source: src}
	var simple, jumps *ease.Run
	for i := 0; i < b.N; i++ {
		simple = measure(b, &p, machine.M68020, pipeline.Simple, replicate.Options{}, false)
		jumps = measure(b, &p, machine.M68020, pipeline.Jumps, replicate.Options{}, false)
	}
	b.ReportMetric(float64(simple.Dynamic.UncondJumps-jumps.Dynamic.UncondJumps), "jumps-removed")
}

// table4Programs is a representative subset used by the per-table
// benchmarks so one benchmark iteration stays in the hundreds of
// milliseconds; cmd/tables runs the full set.
var table4Programs = []string{"wc", "cal", "queens", "sort"}

// BenchmarkTable4Jumps regenerates Table-4 cells: the dynamic fraction of
// unconditional jumps at each level.
func BenchmarkTable4Jumps(b *testing.B) {
	var fr [3]float64
	for i := 0; i < b.N; i++ {
		for li, lv := range []pipeline.Level{pipeline.Simple, pipeline.Loops, pipeline.Jumps} {
			var sum float64
			for _, name := range table4Programs {
				p := bench.ProgramByName(name)
				run := measure(b, p, machine.SPARC, lv, replicate.Options{}, false)
				sum += run.DynamicJumpFraction()
			}
			fr[li] = 100 * sum / float64(len(table4Programs))
		}
	}
	b.ReportMetric(fr[0], "%jumps-SIMPLE")
	b.ReportMetric(fr[1], "%jumps-LOOPS")
	b.ReportMetric(fr[2], "%jumps-JUMPS")
}

// BenchmarkTable5Counts regenerates Table-5 cells: static growth and
// dynamic savings of JUMPS vs SIMPLE.
func BenchmarkTable5Counts(b *testing.B) {
	var statGrowth, dynChange float64
	for i := 0; i < b.N; i++ {
		var stat, dyn float64
		for _, name := range table4Programs {
			p := bench.ProgramByName(name)
			rs := measure(b, p, machine.M68020, pipeline.Simple, replicate.Options{}, false)
			rj := measure(b, p, machine.M68020, pipeline.Jumps, replicate.Options{}, false)
			stat += 100 * float64(rj.Static.StaticInsts-rs.Static.StaticInsts) / float64(rs.Static.StaticInsts)
			dyn += 100 * float64(rj.Dynamic.Exec-rs.Dynamic.Exec) / float64(rs.Dynamic.Exec)
		}
		statGrowth = stat / float64(len(table4Programs))
		dynChange = dyn / float64(len(table4Programs))
	}
	b.ReportMetric(statGrowth, "static-%")
	b.ReportMetric(dynChange, "dynamic-%")
}

// BenchmarkTable6Cache regenerates Table-6 cells: fetch-cost change with
// the paper's cache geometry.
func BenchmarkTable6Cache(b *testing.B) {
	var delta1k, delta8k float64
	for i := 0; i < b.N; i++ {
		p := bench.ProgramByName("od")
		rs := measure(b, p, machine.SPARC, pipeline.Simple, replicate.Options{}, true)
		rj := measure(b, p, machine.SPARC, pipeline.Jumps, replicate.Options{}, true)
		delta1k = 100 * float64(rj.Caches[0].Cost-rs.Caches[0].Cost) / float64(rs.Caches[0].Cost)
		delta8k = 100 * float64(rj.Caches[6].Cost-rs.Caches[6].Cost) / float64(rs.Caches[6].Cost)
	}
	b.ReportMetric(delta1k, "fetchcost-1K-%")
	b.ReportMetric(delta8k, "fetchcost-8K-%")
}

// BenchmarkFigure1 exercises step 3 of the algorithm (whole-loop
// replication when a collected block heads a natural loop) on the paper's
// Figure 1 shape; see internal/replicate for the structural test.
func BenchmarkFigure1(b *testing.B) {
	src := `
int a[100];
int main() {
	int i, s, n;
	s = 0; n = 50;
	for (i = 0; i < 100; i++) a[i] = i;
	i = 0;
	if (a[0] > 0) goto skip;
	s = 1;
skip:
	while (i < n) {
		s += a[i];
		i++;
	}
	printint(s);
	return 0;
}`
	p := bench.Program{Name: "figure1", Source: src}
	var jumps *ease.Run
	for i := 0; i < b.N; i++ {
		jumps = measure(b, &p, machine.SPARC, pipeline.Jumps, replicate.Options{}, false)
	}
	b.ReportMetric(float64(jumps.Dynamic.UncondJumps), "jumps-left")
}

// BenchmarkFigure2 exercises step 5 (redirecting branches of partially
// copied loops) on an unstructured goto loop like the paper's Figure 2.
func BenchmarkFigure2(b *testing.B) {
	src := `
int main() {
	int i, s;
	i = 0; s = 0;
head:
	s += i;
	if (s > 100000) goto out;
	i++;
	if (i < 1000) goto head;
	i = 0;
	goto head;
out:
	printint(s);
	return 0;
}`
	p := bench.Program{Name: "figure2", Source: src}
	var jumps *ease.Run
	for i := 0; i < b.N; i++ {
		jumps = measure(b, &p, machine.SPARC, pipeline.Jumps, replicate.Options{}, false)
	}
	b.ReportMetric(float64(jumps.Dynamic.UncondJumps), "jumps-left")
}

// BenchmarkAblationHeuristic compares the step-2 sequence heuristics.
func BenchmarkAblationHeuristic(b *testing.B) {
	for _, h := range []struct {
		name string
		h    replicate.Heuristic
	}{
		{"Shortest", replicate.HeurShortest},
		{"Returns", replicate.HeurReturns},
		{"Loops", replicate.HeurLoops},
		{"Frequency", replicate.HeurFrequency},
	} {
		b.Run(h.name, func(b *testing.B) {
			var stat, dyn int64
			for i := 0; i < b.N; i++ {
				stat, dyn = 0, 0
				for _, name := range table4Programs {
					p := bench.ProgramByName(name)
					run := measure(b, p, machine.SPARC, pipeline.Jumps, replicate.Options{Heuristic: h.h}, false)
					stat += int64(run.Static.StaticInsts)
					dyn += run.Dynamic.Exec
				}
			}
			b.ReportMetric(float64(stat), "static-insts")
			b.ReportMetric(float64(dyn), "dyn-insts")
		})
	}
}

// BenchmarkAblationLoopCompletion measures the cost of disabling step 3.
func BenchmarkAblationLoopCompletion(b *testing.B) {
	for _, v := range []struct {
		name string
		off  bool
	}{{"On", false}, {"Off", true}} {
		b.Run(v.name, func(b *testing.B) {
			var dyn int64
			for i := 0; i < b.N; i++ {
				dyn = 0
				for _, name := range table4Programs {
					p := bench.ProgramByName(name)
					run := measure(b, p, machine.SPARC, pipeline.Jumps,
						replicate.Options{NoLoopCompletion: v.off}, false)
					dyn += run.Dynamic.Exec
				}
			}
			b.ReportMetric(float64(dyn), "dyn-insts")
		})
	}
}

// BenchmarkAblationSeqCap sweeps the §6 replication length cap.
func BenchmarkAblationSeqCap(b *testing.B) {
	for _, cap := range []int{0, 4, 16, 64} {
		name := "Unlimited"
		if cap > 0 {
			name = ""
			for d := cap; d > 0; d /= 10 {
				name = string(rune('0'+d%10)) + name
			}
		}
		b.Run(name, func(b *testing.B) {
			var stat int64
			for i := 0; i < b.N; i++ {
				stat = 0
				for _, pn := range table4Programs {
					p := bench.ProgramByName(pn)
					run := measure(b, p, machine.SPARC, pipeline.Jumps,
						replicate.Options{MaxSeqRTLs: cap}, false)
					stat += int64(run.Static.StaticInsts)
				}
			}
			b.ReportMetric(float64(stat), "static-insts")
		})
	}
}

// BenchmarkCompiler measures raw compile+optimize throughput per level.
func BenchmarkCompiler(b *testing.B) {
	p := bench.ProgramByName("compact")
	for _, lv := range []pipeline.Level{pipeline.Simple, pipeline.Loops, pipeline.Jumps} {
		b.Run(lv.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog, err := mcc.Compile(p.Source)
				if err != nil {
					b.Fatal(err)
				}
				pipeline.Optimize(prog, pipeline.Config{Machine: machine.SPARC, Level: lv})
			}
		})
	}
}

// BenchmarkCompilerTraced measures the telemetry layer's overhead on the
// compile+optimize cycle. "Off" is the default nil-Tracer configuration —
// compare against BenchmarkCompiler/JUMPS to verify the disabled state costs
// nothing beyond its nil checks (<2% is the budget). "Collector" and "JSONL"
// price the enabled sinks.
func BenchmarkCompilerTraced(b *testing.B) {
	p := bench.ProgramByName("compact")
	for _, v := range []struct {
		name   string
		tracer func() obs.Tracer
	}{
		{"Off", func() obs.Tracer { return nil }},
		{"Collector", func() obs.Tracer { return &obs.Collector{} }},
		{"JSONL", func() obs.Tracer { return obs.NewJSONLWriter(io.Discard) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog, err := mcc.Compile(p.Source)
				if err != nil {
					b.Fatal(err)
				}
				pipeline.Optimize(prog, pipeline.Config{
					Machine: machine.SPARC, Level: pipeline.Jumps, Tracer: v.tracer(),
				})
			}
		})
	}
}

// BenchmarkCompileSuite compiles the full Table-3 suite front-to-back at
// each pipeline level — the macro benchmark behind the `suite` section of
// BENCH_baseline.json (cmd/bench runs the same bench.CompileSuiteBench).
func BenchmarkCompileSuite(b *testing.B) {
	for _, lv := range pipeline.AllLevels() {
		b.Run(lv.String(), bench.CompileSuiteBench(machine.M68020, lv))
	}
}

// BenchmarkStressCompile compiles the synthetic stress function — one
// large goto state machine (difftest.GenerateStress(300)) whose flow graph
// has thousands of blocks — at the JUMPS level with the stock replication
// ceiling. It is a profiling target; TestOracleBeatsMatrix in
// internal/replicate holds the path oracle's lead on the same shape.
func BenchmarkStressCompile(b *testing.B) {
	src := difftest.GenerateStress(300)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := mcc.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		pipeline.Optimize(prog, pipeline.Config{Machine: machine.M68020, Level: pipeline.Jumps})
	}
}

// BenchmarkOracleBand runs difftest.Check with fuzzjump's options (every
// machine, all four levels, input "fuzzjump", default budgets) over
// generator seeds 1-6: the path of perfbench's fuzz-oracle workload, and
// its profiling target (`-cpuprofile`, `-memprofile`). The op is the whole
// band; ms/seed is its cost per seed, generation included.
func BenchmarkOracleBand(b *testing.B) {
	const seeds = 6
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for s := int64(1); s <= seeds; s++ {
			v := difftest.Check(difftest.Generate(s), difftest.Options{Input: []byte("fuzzjump"), Seed: s})
			if v.Failed() || v.Skipped {
				b.Fatalf("seed %d: %+v", s, v)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N*seeds), "ms/seed")
}

// BenchmarkVM measures interpreter throughput (instructions/op reported).
func BenchmarkVM(b *testing.B) {
	p := bench.ProgramByName("sieve")
	prog, err := mcc.Compile(p.Source)
	if err != nil {
		b.Fatal(err)
	}
	pipeline.Optimize(prog, pipeline.Config{Machine: machine.SPARC, Level: pipeline.Jumps})
	b.ResetTimer()
	var exec int64
	for i := 0; i < b.N; i++ {
		res, err := vm.Run(prog, vm.Config{})
		if err != nil {
			b.Fatal(err)
		}
		exec = res.Counts.Exec
	}
	b.ReportMetric(float64(exec), "insts/op")
}

// BenchmarkCacheSim measures the Table-6 cache bank replaying recorded
// Table-3 fetch streams. grep on the x86 at JUMPS has taken jumps and
// variable-length instructions that straddle lines; almost all of its runs
// hit the smallest cache and take the bank's fast path. od on the 68020 at
// DUPS misses 10.6% of its fetches at 1–2 KB and 0.04% at 4–8 KB, so its
// misses cascade through the sizes on the bank's slow path. Each stream
// is recorded before the timer starts; fetches/s counts instruction
// fetches.
func BenchmarkCacheSim(b *testing.B) {
	for _, c := range []struct {
		prog string
		m    *machine.Machine
		lv   pipeline.Level
	}{
		{"grep", machine.X86, pipeline.Jumps},
		{"od", machine.M68020, pipeline.Dups},
	} {
		b.Run(c.prog+"-"+c.m.Name+"-"+c.lv.String(), func(b *testing.B) {
			p := bench.ProgramByName(c.prog)
			var stream [][2]int64
			_, err := ease.Measure(ease.Request{
				Name: p.Name, Source: p.Source, Input: []byte(p.Input),
				Machine: c.m, Level: c.lv,
				OnFetch: func(addr, size int64) { stream = append(stream, [2]int64{addr, size}) },
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bank := cache.NewPaperBank()
				for _, f := range stream {
					bank.Fetch(f[0], f[1])
				}
				bank.Stats()
			}
			b.ReportMetric(float64(len(stream))*float64(b.N)/b.Elapsed().Seconds(), "fetches/s")
		})
	}
}
