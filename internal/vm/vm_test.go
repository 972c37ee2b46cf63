package vm_test

import (
	"testing"

	"repro/internal/mcc"
	"repro/internal/vm"
)

// compileRun compiles src and runs it with the given input, returning output
// and result.
func compileRun(t *testing.T, src, input string) *vm.Result {
	t.Helper()
	prog, err := mcc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := vm.Run(prog, vm.Config{Input: []byte(input)})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestHello(t *testing.T) {
	res := compileRun(t, `
int main() {
	printstr("hello, world\n");
	return 0;
}`, "")
	if got := string(res.Output); got != "hello, world\n" {
		t.Errorf("output = %q", got)
	}
}

func TestArithmetic(t *testing.T) {
	res := compileRun(t, `
int main() {
	int a, b;
	a = 17; b = 5;
	printint(a + b); putchar(' ');
	printint(a - b); putchar(' ');
	printint(a * b); putchar(' ');
	printint(a / b); putchar(' ');
	printint(a % b); putchar(' ');
	printint(-a); putchar(' ');
	printint(~0); putchar(' ');
	printint(a << 2); putchar(' ');
	printint(a >> 1); putchar(' ');
	printint(a & b); putchar(' ');
	printint(a | b); putchar(' ');
	printint(a ^ b);
	return 0;
}`, "")
	want := "22 12 85 3 2 -17 -1 68 8 1 21 20"
	if got := string(res.Output); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestControlFlow(t *testing.T) {
	res := compileRun(t, `
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 10; i++)
		s += i;
	printint(s); putchar(' ');
	i = 0;
	while (i < 5) i++;
	printint(i); putchar(' ');
	i = 0;
	do { i += 3; } while (i < 10);
	printint(i); putchar(' ');
	if (s > 40) printint(1); else printint(0);
	putchar(' ');
	printint(s > 40 && i == 12);
	putchar(' ');
	printint(s < 40 || i == 12);
	return 0;
}`, "")
	want := "45 5 12 1 1 1"
	if got := string(res.Output); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestArraysAndPointers(t *testing.T) {
	res := compileRun(t, `
int g[10];
int m[3][4];
int main() {
	int i, j, *p;
	for (i = 0; i < 10; i++)
		g[i] = i * i;
	printint(g[7]); putchar(' ');
	p = g;
	printint(*(p + 3)); putchar(' ');
	p = &g[5];
	printint(*p); putchar(' ');
	for (i = 0; i < 3; i++)
		for (j = 0; j < 4; j++)
			m[i][j] = i * 10 + j;
	printint(m[2][3]); putchar(' ');
	printint(m[1][2]);
	return 0;
}`, "")
	want := "49 9 25 23 12"
	if got := string(res.Output); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestFunctionsAndRecursion(t *testing.T) {
	res := compileRun(t, `
int fib(int n) {
	if (n < 2)
		return n;
	return fib(n - 1) + fib(n - 2);
}
int gcd(int a, int b) {
	while (b != 0) {
		int t;
		t = a % b;
		a = b;
		b = t;
	}
	return a;
}
int main() {
	printint(fib(15)); putchar(' ');
	printint(gcd(1071, 462));
	return 0;
}`, "")
	want := "610 21"
	if got := string(res.Output); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestSwitchDenseAndSparse(t *testing.T) {
	res := compileRun(t, `
int dense(int x) {
	switch (x) {
	case 1: return 10;
	case 2: return 20;
	case 3: return 30;
	case 4: return 40;
	case 6: return 60;
	default: return -1;
	}
}
int sparse(int x) {
	switch (x) {
	case 10: return 1;
	case 200: return 2;
	default: return 0;
	}
}
int main() {
	int i;
	for (i = 0; i < 8; i++) {
		printint(dense(i));
		putchar(' ');
	}
	printint(sparse(10)); putchar(' ');
	printint(sparse(200)); putchar(' ');
	printint(sparse(5));
	return 0;
}`, "")
	want := "-1 10 20 30 40 -1 60 -1 1 2 0"
	if got := string(res.Output); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	res := compileRun(t, `
int main() {
	int x, n;
	n = 0;
	for (x = 0; x < 5; x++) {
		switch (x) {
		case 0:
		case 1:
			n += 1;
			break;
		case 2:
			n += 10;
		case 3:
			n += 100;
			break;
		default:
			n += 1000;
		}
	}
	printint(n);
	return 0;
}`, "")
	want := "1212" // 1+1+110+100+1000
	if got := string(res.Output); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestGotoAndLabels(t *testing.T) {
	res := compileRun(t, `
int main() {
	int i, s;
	i = 0; s = 0;
loop:
	if (i >= 6) goto done;
	s += i;
	i++;
	goto loop;
done:
	printint(s);
	return 0;
}`, "")
	if got := string(res.Output); got != "15" {
		t.Errorf("output = %q, want 15", got)
	}
}

func TestGetcharEcho(t *testing.T) {
	res := compileRun(t, `
int main() {
	int c;
	while ((c = getchar()) != -1)
		putchar(c);
	return 0;
}`, "abc\ndef")
	if got := string(res.Output); got != "abc\ndef" {
		t.Errorf("output = %q", got)
	}
}

func TestTernaryIncDec(t *testing.T) {
	res := compileRun(t, `
int main() {
	int a, b;
	a = 3;
	b = a++;
	printint(a); printint(b);
	b = ++a;
	printint(a); printint(b);
	b = a--;
	printint(b);
	printint(a > 3 ? 100 : 200);
	return 0;
}`, "")
	want := "43555100"
	if got := string(res.Output); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestGlobalInitializers(t *testing.T) {
	res := compileRun(t, `
int table[] = {2, 3, 5, 7, 11};
int scale = 4;
char msg[] = "ok";
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 5; i++)
		s += table[i] * scale;
	printint(s);
	putchar(' ');
	printstr(msg);
	return 0;
}`, "")
	want := "112 ok"
	if got := string(res.Output); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

func TestBreakContinue(t *testing.T) {
	res := compileRun(t, `
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 100; i++) {
		if (i % 2 == 0)
			continue;
		if (i > 10)
			break;
		s += i;
	}
	printint(s);
	return 0;
}`, "")
	if got := string(res.Output); got != "25" { // 1+3+5+7+9
		t.Errorf("output = %q, want 25", got)
	}
}

func TestExitIntrinsic(t *testing.T) {
	res := compileRun(t, `
int main() {
	printint(1);
	exit(7);
	printint(2);
	return 0;
}`, "")
	if got := string(res.Output); got != "1" {
		t.Errorf("output = %q, want 1", got)
	}
	if res.ExitCode != 7 {
		t.Errorf("exit code = %d, want 7", res.ExitCode)
	}
}

func TestCounters(t *testing.T) {
	res := compileRun(t, `
int main() {
	int i;
	for (i = 0; i < 10; i++)
		;
	return 0;
}`, "")
	if res.Counts.Exec == 0 || res.Counts.CondBranches == 0 {
		t.Errorf("counters not collected: %+v", res.Counts)
	}
	// The naive for-loop shape has one unconditional jump before the loop.
	if res.Counts.UncondJumps == 0 {
		t.Errorf("expected unconditional jumps in naive code, got %+v", res.Counts)
	}
}

func TestCharSemantics(t *testing.T) {
	res := compileRun(t, `
int isupper(int c) { return c >= 'A' && c <= 'Z'; }
int main() {
	char buf[16];
	int i, n;
	n = 0;
	while ((i = getchar()) != -1 && n < 15) {
		if (isupper(i))
			buf[n++] = i - 'A' + 'a';
		else
			buf[n++] = i;
	}
	buf[n] = '\0';
	printstr(buf);
	return 0;
}`, "HeLLo")
	if got := string(res.Output); got != "hello" {
		t.Errorf("output = %q, want hello", got)
	}
}

func TestNestedCalls(t *testing.T) {
	res := compileRun(t, `
int add(int a, int b) { return a + b; }
int twice(int x) { return x * 2; }
int main() {
	printint(add(twice(3), add(twice(4), 5)));
	return 0;
}`, "")
	if got := string(res.Output); got != "19" {
		t.Errorf("output = %q, want 19", got)
	}
}
