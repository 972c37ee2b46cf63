package mcc

import (
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/rtl"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`int x = 0x1F + 'a'; // comment
/* block
   comment */
char *s = "he\tllo";`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []TokKind{
		TKwInt, TIdent, TAssign, TNum, TPlus, TChar, TSemi,
		TKwChar, TStar, TIdent, TAssign, TStr, TSemi, TEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[3].Val != 0x1F {
		t.Errorf("hex literal = %d", toks[3].Val)
	}
	if toks[5].Val != 'a' {
		t.Errorf("char literal = %d", toks[5].Val)
	}
	if toks[11].Text != "he\tllo" {
		t.Errorf("string body = %q", toks[11].Text)
	}
}

func TestLexOperators(t *testing.T) {
	src := "+= -= *= /= %= &= |= ^= <<= >>= || && == != <= >= << >> ++ --"
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{
		TPlusEq, TMinusEq, TStarEq, TSlashEq, TPercentEq, TAmpEq, TPipeEq,
		TCaretEq, TShlEq, TShrEq, TOrOr, TAndAnd, TEq, TNe, TLe, TGe,
		TShl, TShr, TInc, TDec, TEOF,
	}
	for i, w := range want {
		if toks[i].Kind != w {
			t.Errorf("token %d = %v, want %v", i, toks[i].Kind, w)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{
		"\"unterminated",
		"'a",
		"/* unterminated",
		"@",
		`"bad \q escape"`,
	} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks, err := Lex("int\nx\n=\n1;")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 2, 3, 4} {
		if toks[i].Line != want {
			t.Errorf("token %d line = %d, want %d", i, toks[i].Line, want)
		}
	}
}

func TestParseUnit(t *testing.T) {
	u, err := Parse(`
int g = 3;
int arr[5];
int inferred[] = {1, 2, 3};
char msg[] = "hi";
int m[2][3];
int add(int a, int b) { return a + b; }
void nothing() { }
int main() { return add(g, 2); }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Globals) != 5 || len(u.Funcs) != 3 {
		t.Fatalf("got %d globals, %d funcs", len(u.Globals), len(u.Funcs))
	}
	if u.Globals[2].Type.N != 3 {
		t.Errorf("inferred array size = %d, want 3", u.Globals[2].Type.N)
	}
	if u.Globals[3].Type.N != 3 { // "hi" + NUL
		t.Errorf("string array size = %d, want 3", u.Globals[3].Type.N)
	}
	if u.Globals[4].Type.SizeCells() != 6 {
		t.Errorf("2-D array cells = %d, want 6", u.Globals[4].Type.SizeCells())
	}
	if u.Funcs[1].Ret.Kind != TyVoid {
		t.Error("void return type lost")
	}
}

func TestParsePrecedence(t *testing.T) {
	u, err := Parse(`int main() { return 1 + 2 * 3 - 10 / 2; }`)
	if err != nil {
		t.Fatal(err)
	}
	ret := u.Funcs[0].Body.Body[0]
	if ret.Kind != SReturn {
		t.Fatal("expected return")
	}
	// (1 + (2*3)) - (10/2): top node is "-"
	e := ret.Expr
	if e.Kind != EBin || e.Op != "-" {
		t.Fatalf("top = %v %q", e.Kind, e.Op)
	}
	if e.X.Op != "+" || e.X.Y.Op != "*" || e.Y.Op != "/" {
		t.Error("precedence shape wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int main() { return }",            // missing expression... actually valid? no: `return }`
		"int main() { if (1) }",            // missing statement
		"int main() { x = ; }",             // missing rhs
		"int f(int) { return 0; }",         // unnamed parameter
		"int a[] ;",                        // unsized array without initializer
		"int main() { case 1: ; }",         // case outside switch is a parse error here
		"int main() { int x = (1; }",       // unbalanced paren
		"int main() { 1() ; }",             // call of non-function
		"int main() { switch (1) { x; } }", // statement before first case
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSemaErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"undefined var", `int main() { return x; }`},
		{"undefined func", `int main() { return f(); }`},
		{"arity", `int f(int a) { return a; } int main() { return f(1, 2); }`},
		{"assign to literal", `int main() { 3 = 4; return 0; }`},
		{"array assign", `int a[3]; int main() { a = 0; return 0; }`},
		{"break outside", `int main() { break; return 0; }`},
		{"continue outside", `int main() { continue; return 0; }`},
		{"goto undefined", `int main() { goto nowhere; return 0; }`},
		{"duplicate case", `int main() { switch (1) { case 1: ; case 1: ; } return 0; }`},
		{"two defaults", `int main() { switch (1) { default: ; default: ; } return 0; }`},
		{"redefinition", `int main() { int x; int x; return 0; }`},
		{"void value", `void v() {} int main() { return v(); }`},
		{"void condition", `void v() {} int main() { if (v()) return 1; return 0; }`},
		{"return value in void", `void v() { return 3; } int main() { return 0; }`},
		{"no main", `int f() { return 0; }`},
		{"bad global init", `int g = f(); int main() { return 0; }`},
		{"string too long", `char s[2] = "abc"; int main() { return 0; }`},
		{"deref int", `int main() { return *3; }`},
		{"addr of func", `int f() { return 0; } int main() { return &f; }`},
		{"intrinsic arity", `int main() { putchar(); return 0; }`},
	}
	for _, c := range cases {
		if _, err := Compile(c.src); err == nil {
			t.Errorf("%s: Compile should fail", c.name)
		}
	}
}

func TestCompileShapes(t *testing.T) {
	// The VPCC-style lowering must introduce the jumps the paper attacks.
	prog, err := Compile(`
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 10; i++)
		s += i;
	if (s > 5)
		s = 1;
	else
		s = 2;
	while (s < 100)
		s *= 2;
	return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("main")
	jumps := 0
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			if b.Insts[ii].Kind == rtl.Jmp {
				jumps++
			}
		}
	}
	// for-loop entry jump, if-else join jump, while backward jump: >= 3.
	if jumps < 3 {
		t.Errorf("naive lowering produced only %d unconditional jumps:\n%s", jumps, f)
	}
}

func TestCompileGlobalInitFolding(t *testing.T) {
	prog, err := Compile(`
int a = 2 + 3 * 4;
int b = -(1 << 4);
int c = ~0 & 0xFF;
int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string]int64{"a": 14, "b": -16, "c": 0xFF}
	for name, want := range wants {
		var g *rtl.GlobalDef
		for i := range prog.Globals {
			if prog.Globals[i].Name == name {
				g = &prog.Globals[i]
			}
		}
		if g == nil || len(g.Init) != 1 || g.Init[0] != want {
			t.Errorf("global %s init = %v, want %d", name, g, want)
		}
	}
}

func TestStringInterning(t *testing.T) {
	prog, err := Compile(`
int main() {
	printstr("same");
	printstr("same");
	printstr("different");
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	strGlobals := 0
	for _, g := range prog.Globals {
		if strings.HasPrefix(g.Name, ".str") {
			strGlobals++
		}
	}
	if strGlobals != 2 {
		t.Errorf("got %d interned strings, want 2", strGlobals)
	}
}

func TestScalarLocalsRecorded(t *testing.T) {
	prog, err := Compile(`
int f(int p) {
	int x;
	int arr[4];
	int *q;
	x = p;
	q = arr;
	return x + *q;
}
int main() { return f(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Func("f")
	// p (param), x and q are scalar; arr is not.
	if len(f.ScalarLocals) != 3 {
		t.Errorf("ScalarLocals = %v, want 3 entries", f.ScalarLocals)
	}
	if f.NLocals != 1+1+4+1 {
		t.Errorf("NLocals = %d, want 7", f.NLocals)
	}
}

func TestSwitchLoweringShapes(t *testing.T) {
	// Dense switches become jump tables (indirect jumps); sparse ones
	// become compare chains.
	dense, err := Compile(`
int main() {
	switch (3) {
	case 1: return 1;
	case 2: return 2;
	case 3: return 3;
	case 4: return 4;
	case 5: return 5;
	}
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if countKind(dense, rtl.IJmp) != 1 {
		t.Error("dense switch should lower to one indirect jump")
	}
	sparse, err := Compile(`
int main() {
	switch (3) {
	case 1: return 1;
	case 1000: return 2;
	}
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	if countKind(sparse, rtl.IJmp) != 0 {
		t.Error("sparse switch must not use a jump table")
	}
}

func countKind(p *cfg.Program, k rtl.Kind) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for ii := range b.Insts {
				if b.Insts[ii].Kind == k {
					n++
				}
			}
		}
	}
	return n
}
