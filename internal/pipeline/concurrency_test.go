package pipeline_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/replicate"
)

// TestOptimizeConcurrentInvocations verifies the whole compile+optimize
// path is safe for concurrent independent invocations: no package-level
// mutable state anywhere in mcc/pipeline/opt/replicate/cfg leaks between
// programs being optimized on different goroutines. Run under -race (as
// CI does) this is the subsystem's isolation check; the result
// comparison also catches nondeterminism that doesn't race.
//
// The audited shared state in the optimizer packages is: the machine
// models (machine.M68020/SPARC, read-only by convention and by this
// test), immutable lookup tables (mcc keywords, rtl names), and the
// predefined mcc type singletons. None is written on the compile path.
func TestOptimizeConcurrentInvocations(t *testing.T) {
	const src = `
int x[100];
int main() {
	int i;
	int n;
	n = 0;
	for (i = 0; i < 100; i++)
		x[i] = i;
	i = 1;
	while (1) {
		if (i > 90)
			break;
		x[i-1] = x[i];
		i++;
	}
	for (i = 0; i < 90; i++)
		if (x[i] % 3 == 0)
			n = n + x[i];
	return n % 251;
}
`
	type cfgCase struct {
		m  *machine.Machine
		lv pipeline.Level
	}
	cases := []cfgCase{
		{machine.M68020, pipeline.Simple},
		{machine.M68020, pipeline.Jumps},
		{machine.SPARC, pipeline.Loops},
		{machine.SPARC, pipeline.Jumps},
	}

	// Reference results, computed sequentially.
	want := make([]pipeline.Stats, len(cases))
	for i, c := range cases {
		prog, err := mcc.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pipeline.Optimize(prog, pipeline.Config{
			Machine: c.m, Level: c.lv,
			Spec: pipeline.Spec{Replication: replicate.Options{Heuristic: replicate.HeurReturns}},
		})
	}

	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan string, len(cases)*rounds)
	for r := 0; r < rounds; r++ {
		for i, c := range cases {
			wg.Add(1)
			go func(i int, c cfgCase) {
				defer wg.Done()
				prog, err := mcc.Compile(src)
				if err != nil {
					errs <- err.Error()
					return
				}
				st := pipeline.Optimize(prog, pipeline.Config{
					Machine: c.m, Level: c.lv,
					Spec: pipeline.Spec{Replication: replicate.Options{Heuristic: replicate.HeurReturns}},
				})
				// Stats carries a slice field (Verify) since verify-each
				// landed, so compare deeply rather than with ==.
				if !reflect.DeepEqual(st, want[i]) {
					errs <- "concurrent result diverged from sequential reference"
				}
			}(i, c)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
