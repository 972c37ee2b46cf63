package service

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/pipeline"
)

// TestDeterministicAcrossConcurrency compiles the same source on a wide
// pool and a single-worker service and checks the results agree — the
// pipeline must be a pure function of its inputs regardless of what else
// shares the process.
func TestDeterministicAcrossConcurrency(t *testing.T) {
	wide := New(Config{Workers: 4})
	narrow := New(Config{Workers: 1})
	defer wide.Close(context.Background())
	defer narrow.Close(context.Background())
	req := CompileRequest{Source: tinySrc, Spec: Spec{Machine: "sparc", Level: "jumps"}}
	a, err := wide.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := narrow.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Assembly != b.Assembly || !reflect.DeepEqual(a.Static, b.Static) || a.CodeBytes != b.CodeBytes {
		t.Fatalf("results diverge across pool sizes:\n%+v\n%+v", a, b)
	}
}

// TestGracefulDrain submits a grid job and immediately closes the
// service: Close must wait for the job to finish (drain), and its result
// must remain retrievable afterwards.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 2})
	view, err := s.SubmitGrid(GridRequest{Programs: []string{"queens"}})
	if err != nil {
		t.Fatalf("SubmitGrid: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got, err := s.Job(view.ID)
	if err != nil {
		t.Fatalf("Job after Close: %v", err)
	}
	if got.State != JobDone {
		t.Fatalf("job state after drain = %q (%d/%d, err %q), want done",
			got.State, got.Done, got.Total, got.Error)
	}
	if want := len(machine.All()) * len(pipeline.AllLevels()); got.Done != want {
		t.Fatalf("done = %d, want %d", got.Done, want)
	}
}

// TestClosedServiceRejects verifies every entry point refuses work after
// Close.
func TestClosedServiceRejects(t *testing.T) {
	s := New(Config{Workers: 1})
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Compile(context.Background(), CompileRequest{Source: tinySrc}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compile after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Measure(context.Background(), MeasureRequest{Program: "queens"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Measure after Close = %v, want ErrClosed", err)
	}
	if _, err := s.SubmitGrid(GridRequest{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitGrid after Close = %v, want ErrClosed", err)
	}
}

// TestCacheKeyCanonical: the cache keys are built from the resolved
// configuration, so every spelling of one compile is compiled once and its
// repeats come back Cached with the same result, and only real compiles
// feed the throughput metrics.
func TestCacheKeyCanonical(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())
	ctx := context.Background()
	groups := [][]Spec{
		// The default level and heuristic, spelled four more ways.
		{{}, {Level: "jumps"}, {Level: "JUMPS"}, {Level: "Jumps"},
			{Level: "jumps", CompileOptions: CompileOptions{Replication: ReplicationOptions{Heuristic: "shortest"}}}},
		// A machine alias.
		{{Machine: "i386"}, {Machine: "x86"}},
		// Another level is another compile.
		{{Level: "loops"}, {Level: "LOOPS"}},
	}
	for gi, g := range groups {
		var first *CompileResult
		for si, spec := range g {
			res, err := s.Compile(ctx, CompileRequest{Source: tinySrc, Spec: spec})
			if err != nil {
				t.Fatalf("group %d, %+v: %v", gi, spec, err)
			}
			if res.Cached != (si > 0) {
				t.Errorf("group %d, %+v: cached = %v, want %v", gi, spec, res.Cached, si > 0)
			}
			if first == nil {
				first = res
			} else if res.Machine != first.Machine || res.Level != first.Level || res.Assembly != first.Assembly {
				t.Errorf("group %d, %+v: result differs from %+v's", gi, spec, g[0])
			}
		}
	}
	mq := MeasureRequest{Program: "queens"}
	for i, spec := range []Spec{{}, {Machine: "68k", Level: "JUMPS"}} {
		mq.Spec = spec
		res, err := s.Measure(ctx, mq)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached != (i > 0) {
			t.Errorf("measure %+v: cached = %v, want %v", spec, res.Cached, i > 0)
		}
	}
	if n := s.met.compileRTLs.Value(); n <= 0 {
		t.Fatalf("mccd_compile_rtls_total = %d after real compiles, want > 0", n)
	}
	if n, want := s.met.throughput.Snapshot().Count, int64(len(groups)+1); n != want {
		t.Fatalf("mccd_compile_rtls_per_second count = %d, want %d (one per distinct compile)", n, want)
	}
}

// TestVerifyEachWire covers the verify-each mode on the wire: the flag
// participates in both cache keys, a clean program reports no violations
// (and adds no series to the by-pass violation family), and the response
// carries the structured diagnostics via Static.Verify.
func TestVerifyEachWire(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())

	base := CompileRequest{Source: tinySrc, Spec: Spec{Level: "jumps"}}
	plain, err := s.Compile(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	vreq := base
	vreq.VerifyEach = true
	verified, err := s.Compile(context.Background(), vreq)
	if err != nil {
		t.Fatal(err)
	}
	if verified.Cached {
		t.Fatal("verify_each request served from the plain request's cache entry")
	}
	if len(verified.Static.Verify) != 0 {
		t.Fatalf("clean compile reported violations: %v", verified.Static.Verify)
	}
	if plain.Assembly != verified.Assembly {
		t.Fatal("verify_each changed the compiled output")
	}
	var prom strings.Builder
	s.met.reg.WriteProm(&prom)
	if strings.Contains(prom.String(), "mccd_verify_violations_by_pass_total{") {
		t.Fatalf("clean compiles counted verifier violations:\n%s", prom.String())
	}

	mplain := MeasureRequest{Program: "queens"}
	if _, err := s.Measure(context.Background(), mplain); err != nil {
		t.Fatal(err)
	}
	mver := mplain
	mver.VerifyEach = true
	mres, err := s.Measure(context.Background(), mver)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Cached {
		t.Fatal("verify_each measure served from the plain measure's cache entry")
	}
	if len(mres.Static.Verify) != 0 {
		t.Fatalf("clean measure reported violations: %v", mres.Static.Verify)
	}
}

// TestJobTimeout bounds a synchronous job: the waiter gives up even if
// the job itself would take longer.
func TestJobTimeout(t *testing.T) {
	s := New(Config{Workers: 1, JobTimeout: 30 * time.Millisecond})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	}()
	// Park the worker so the submitted job cannot start before the
	// timeout fires.
	release := make(chan struct{})
	defer close(release)
	running := make(chan struct{})
	s.pool.Submit(context.Background(), func(context.Context) {
		close(running)
		<-release
	})
	<-running
	_, err := s.Compile(context.Background(), CompileRequest{Source: tinySrc})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Compile with parked worker = %v, want DeadlineExceeded", err)
	}
}

// TestPanicBecomesError routes a panicking job through runSync and
// expects an error response, not a crashed worker.
func TestPanicBecomesError(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())
	_, err := s.runSync(context.Background(), jobMeta{kind: "test"}, func(context.Context) (any, error) {
		panic("kaboom")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("runSync panic = %v, want job-panicked error", err)
	}
	// The worker survived: the next job runs fine.
	v, err := s.runSync(context.Background(), jobMeta{kind: "test"}, func(context.Context) (any, error) {
		return 7, nil
	})
	if err != nil || v.(int) != 7 {
		t.Fatalf("after panic: %v, %v", v, err)
	}
}
