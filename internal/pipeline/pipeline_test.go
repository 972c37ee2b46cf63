package pipeline_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/replicate"
	"repro/internal/vm"
)

// programs exercises every front-end construct; each entry is differential
// tested: the optimized output at every level on every machine must match
// the unoptimized run.
var programs = []struct {
	name  string
	src   string
	input string
}{
	{"sumloop", `
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 100; i++)
		s += i;
	printint(s);
	return 0;
}`, ""},
	{"midloopexit", `
int x[64];
int n = 20;
int main() {
	int i;
	for (i = 0; i < 64; i++)
		x[i] = i * 3;
	i = 1;
	while (1) {
		if (i >= n)
			break;
		x[i-1] = x[i];
		i++;
	}
	for (i = 0; i < 21; i++) {
		printint(x[i]);
		putchar(' ');
	}
	return 0;
}`, ""},
	{"ifelse", `
int f(int i, int n) {
	if (i > 5)
		i = i / n;
	else
		i = i * n;
	return i;
}
int main() {
	int i;
	for (i = 0; i < 12; i++) {
		printint(f(i, 3));
		putchar(' ');
	}
	return 0;
}`, ""},
	{"gcdfib", `
int fib(int n) {
	if (n < 2) return n;
	return fib(n-1) + fib(n-2);
}
int gcd(int a, int b) {
	while (b != 0) { int t; t = a % b; a = b; b = t; }
	return a;
}
int main() {
	printint(fib(12)); putchar(' ');
	printint(gcd(462, 1071));
	return 0;
}`, ""},
	{"matrix", `
int a[8][8], b[8][8], c[8][8];
int main() {
	int i, j, k, s;
	for (i = 0; i < 8; i++)
		for (j = 0; j < 8; j++) {
			a[i][j] = i + j;
			b[i][j] = i - j;
		}
	for (i = 0; i < 8; i++)
		for (j = 0; j < 8; j++) {
			s = 0;
			for (k = 0; k < 8; k++)
				s += a[i][k] * b[k][j];
			c[i][j] = s;
		}
	s = 0;
	for (i = 0; i < 8; i++)
		s += c[i][i];
	printint(s);
	return 0;
}`, ""},
	{"switchy", `
int classify(int c) {
	switch (c) {
	case ' ': case '\t': case '\n': return 0;
	case '0': case '1': case '2': case '3': case '4':
	case '5': case '6': case '7': case '8': case '9': return 1;
	default: return 2;
	}
}
int main() {
	int c, words, digits, others;
	words = 0; digits = 0; others = 0;
	while ((c = getchar()) != -1) {
		switch (classify(c)) {
		case 0: words++; break;
		case 1: digits++; break;
		default: others++;
		}
	}
	printint(words); putchar(' ');
	printint(digits); putchar(' ');
	printint(others);
	return 0;
}`, "ab 12 cd\t34\n99 zz"},
	{"gotoloop", `
int main() {
	int i, j, s;
	s = 0;
	i = 0;
top:
	j = 0;
inner:
	s += i * j;
	j++;
	if (j < 5) goto inner;
	i++;
	if (i < 5) goto top;
	printint(s);
	return 0;
}`, ""},
	{"pointers", `
int buf[32];
int sum(int *p, int n) {
	int s;
	s = 0;
	while (n-- > 0)
		s += *p++;
	return s;
}
int main() {
	int i;
	for (i = 0; i < 32; i++)
		buf[i] = i * i - 3;
	printint(sum(buf, 32)); putchar(' ');
	printint(sum(&buf[8], 4));
	return 0;
}`, ""},
	{"shortcircuit", `
int calls = 0;
int noisy(int v) { calls++; return v; }
int main() {
	int a;
	a = 0;
	if (noisy(0) && noisy(1)) a = 1;
	if (noisy(1) || noisy(0)) a += 2;
	if (noisy(1) && noisy(1) && noisy(0)) a += 4;
	printint(a); putchar(' ');
	printint(calls);
	return 0;
}`, ""},
	{"strings", `
int length(char *s) {
	int n;
	n = 0;
	while (s[n] != '\0') n++;
	return n;
}
int main() {
	char buf[32];
	int i, n;
	char *msg = "replication";
	n = length(msg);
	for (i = 0; i < n; i++)
		buf[i] = msg[n - 1 - i];
	buf[n] = '\0';
	printstr(buf); putchar(' ');
	printint(n);
	return 0;
}`, ""},
	{"ternary", `
int main() {
	int i, s;
	s = 0;
	for (i = -5; i < 6; i++)
		s += i < 0 ? -i : i * 2;
	printint(s);
	return 0;
}`, ""},
	{"dowhile", `
int main() {
	int i, n, steps;
	n = 27; steps = 0;
	do {
		if (n % 2 == 0) n = n / 2;
		else n = 3 * n + 1;
		steps++;
	} while (n != 1);
	printint(steps);
	i = 10;
	do { i--; } while (i);
	putchar(' ');
	printint(i);
	return 0;
}`, ""},
}

func levels() []pipeline.Level {
	return []pipeline.Level{pipeline.Simple, pipeline.Loops, pipeline.Jumps}
}

func machines() []*machine.Machine {
	return machine.All()
}

// TestDifferential checks that every optimization level on every machine
// preserves program behaviour.
func TestDifferential(t *testing.T) {
	for _, pr := range programs {
		unit, err := mcc.Parse(pr.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", pr.name, err)
		}
		ref, err := mcc.CompileUnit(unit)
		if err != nil {
			t.Fatalf("%s: compile: %v", pr.name, err)
		}
		want, err := vm.Run(ref, vm.Config{Input: []byte(pr.input)})
		if err != nil {
			t.Fatalf("%s: reference run: %v", pr.name, err)
		}
		for _, m := range machines() {
			for _, lv := range levels() {
				t.Run(fmt.Sprintf("%s/%s/%s", pr.name, m.Name, lv), func(t *testing.T) {
					prog, err := mcc.Compile(pr.src)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					pipeline.Optimize(prog, pipeline.Config{Machine: m, Level: lv})
					got, err := vm.Run(prog, vm.Config{Input: []byte(pr.input)})
					if err != nil {
						t.Fatalf("optimized run: %v\n%s", err, prog)
					}
					if string(got.Output) != string(want.Output) {
						t.Fatalf("output mismatch:\n got %q\nwant %q", got.Output, want.Output)
					}
					if got.ExitCode != want.ExitCode {
						t.Fatalf("exit code %d, want %d", got.ExitCode, want.ExitCode)
					}
				})
			}
		}
	}
}

// TestJumpsRemovesUncondJumps checks the paper's headline claim on this
// test set: after JUMPS, executed unconditional jumps all but vanish, while
// SIMPLE retains them.
func TestJumpsRemovesUncondJumps(t *testing.T) {
	for _, pr := range programs {
		for _, m := range machines() {
			simple, err := mcc.Compile(pr.src)
			if err != nil {
				t.Fatalf("%s: %v", pr.name, err)
			}
			pipeline.Optimize(simple, pipeline.Config{Machine: m, Level: pipeline.Simple})
			rs, err := vm.Run(simple, vm.Config{Input: []byte(pr.input)})
			if err != nil {
				t.Fatalf("%s simple: %v", pr.name, err)
			}
			jumps, err := mcc.Compile(pr.src)
			if err != nil {
				t.Fatalf("%s: %v", pr.name, err)
			}
			pipeline.Optimize(jumps, pipeline.Config{Machine: m, Level: pipeline.Jumps})
			rj, err := vm.Run(jumps, vm.Config{Input: []byte(pr.input)})
			if err != nil {
				t.Fatalf("%s jumps: %v", pr.name, err)
			}
			sj := rs.Counts.UncondJumps - rs.Counts.IndirectJumps
			jj := rj.Counts.UncondJumps - rj.Counts.IndirectJumps
			if jj > sj {
				t.Errorf("%s/%s: JUMPS executed more direct jumps (%d) than SIMPLE (%d)",
					pr.name, m.Name, jj, sj)
			}
			// Squashed annulled delay slots count as executed no-ops, so a
			// sub-percent wobble on tiny programs is expected; anything
			// beyond 1% is a real regression.
			if float64(rj.Counts.Exec) > 1.01*float64(rs.Counts.Exec) {
				t.Errorf("%s/%s: JUMPS executed more instructions (%d) than SIMPLE (%d)",
					pr.name, m.Name, rj.Counts.Exec, rs.Counts.Exec)
			}
		}
	}
}

// TestLevelsWithOptions exercises the §6 extensions: a replication length
// cap and indirect-jump termination keep the program correct.
func TestLevelsWithOptions(t *testing.T) {
	opts := []replicate.Options{
		{MaxSeqRTLs: 4},
		{AllowIndirect: true},
		{Heuristic: replicate.HeurReturns},
		{Heuristic: replicate.HeurLoops},
		{Heuristic: replicate.HeurFrequency},
		{NoLoopCompletion: true},
	}
	for _, pr := range programs {
		ref, err := mcc.Compile(pr.src)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		want, err := vm.Run(ref, vm.Config{Input: []byte(pr.input)})
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		for oi, o := range opts {
			prog, err := mcc.Compile(pr.src)
			if err != nil {
				t.Fatalf("%s: %v", pr.name, err)
			}
			pipeline.Optimize(prog, pipeline.Config{
				Machine: machine.SPARC, Level: pipeline.Jumps, Spec: pipeline.Spec{Replication: o},
			})
			got, err := vm.Run(prog, vm.Config{Input: []byte(pr.input)})
			if err != nil {
				t.Fatalf("%s opts[%d]: %v", pr.name, oi, err)
			}
			if string(got.Output) != string(want.Output) {
				t.Errorf("%s opts[%d]: output %q, want %q", pr.name, oi, got.Output, want.Output)
			}
		}
	}
}

// TestOptimizeDropsArena checks that a compiled function does not keep its
// analysis arena: after Optimize, the first ComputeEdges on it starts a
// cold arena and allocates, where a warm one would allocate nothing.
func TestOptimizeDropsArena(t *testing.T) {
	prog, err := mcc.Compile(programs[0].src)
	if err != nil {
		t.Fatal(err)
	}
	pipeline.Optimize(prog, pipeline.Config{Machine: machine.SPARC, Level: pipeline.Jumps, Jobs: 1})
	f := prog.Funcs[0]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cfg.ComputeEdges(f).Release()
	runtime.ReadMemStats(&after)
	if after.Mallocs == before.Mallocs {
		t.Error("the first ComputeEdges after Optimize allocated nothing: the function kept its arena")
	}
}
