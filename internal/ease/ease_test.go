package ease_test

import (
	"testing"

	"repro/internal/ease"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

const src = `
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 200; i++)
		s += i % 3;
	printint(s);
	return 0;
}`

func TestMeasureBasics(t *testing.T) {
	run, err := ease.Measure(ease.Request{
		Name: "t", Source: src, Machine: machine.SPARC, Level: pipeline.Jumps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(run.Output) != "199" {
		t.Errorf("output = %q", run.Output)
	}
	if run.Dynamic.Exec == 0 || run.Static.StaticInsts == 0 || run.CodeBytes == 0 {
		t.Errorf("missing measurements: %+v", run)
	}
	if run.Caches != nil {
		t.Error("caches simulated without being requested")
	}
	if f := run.DynamicJumpFraction(); f < 0 || f > 1 {
		t.Errorf("jump fraction %f out of range", f)
	}
	if run.InstsBetweenBranches() <= 0 {
		t.Error("instructions between branches not positive")
	}
}

func TestMeasureWithCaches(t *testing.T) {
	run, err := ease.Measure(ease.Request{
		Name: "t", Source: src, Machine: machine.M68020, Level: pipeline.Simple,
		SimulateCaches: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Caches) != 8 {
		t.Fatalf("got %d cache configs, want 8", len(run.Caches))
	}
	// Every instruction executed produces at least one fetch.
	for i, cs := range run.Caches {
		if cs.Fetches < run.Dynamic.Exec {
			t.Errorf("cache %d: %d fetches < %d executed", i, cs.Fetches, run.Dynamic.Exec)
		}
	}
}

func TestMeasureCustomCacheSizes(t *testing.T) {
	run, err := ease.Measure(ease.Request{
		Name: "t", Source: src, Machine: machine.SPARC, Level: pipeline.Simple,
		SimulateCaches: true, CacheSizes: []int64{128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Caches) != 2 || run.Caches[0].SizeBytes != 128 {
		t.Errorf("custom sizes not honoured: %+v", run.Caches)
	}
}

func TestMeasureCompileError(t *testing.T) {
	if _, err := ease.Measure(ease.Request{
		Name: "bad", Source: "int main( {", Machine: machine.SPARC,
	}); err == nil {
		t.Error("expected a compile error")
	}
}

func TestJumpFractionsOrdered(t *testing.T) {
	// The headline property on a single program: SIMPLE >= LOOPS >= JUMPS.
	var fr [3]float64
	for i, lv := range []pipeline.Level{pipeline.Simple, pipeline.Loops, pipeline.Jumps} {
		run, err := ease.Measure(ease.Request{
			Name: "t", Source: src, Machine: machine.M68020, Level: lv,
		})
		if err != nil {
			t.Fatal(err)
		}
		fr[i] = run.DynamicJumpFraction()
	}
	if !(fr[0] >= fr[1] && fr[1] >= fr[2]) {
		t.Errorf("jump fractions not ordered: %v", fr)
	}
	if fr[2] != 0 {
		t.Errorf("JUMPS should remove every jump here, got %f", fr[2])
	}
}

func TestPercentChange(t *testing.T) {
	if ease.PercentChange(100, 110) != 10 {
		t.Error("+10% broken")
	}
	if ease.PercentChange(200, 100) != -50 {
		t.Error("-50% broken")
	}
	if ease.PercentChange(0, 5) != 0 {
		t.Error("zero base should yield 0")
	}
}
