package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/obs"
)

// waitJob polls a job until it leaves the queued/running states.
func waitJob(t *testing.T, srv string, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, data := getBody(t, srv+"/jobs/"+id)
		var view JobView
		if err := json.Unmarshal(data, &view); err != nil {
			t.Fatalf("unmarshal job: %v %s", err, data)
		}
		if view.State == JobDone || view.State == JobFailed {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q (%d/%d)", view.State, view.Done, view.Total)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCompileTraceLifecycle: a sync compile registers a completed job
// whose trace replays via /jobs/{id}/trace (Chrome JSON with pass spans)
// and /jobs/{id}/events (JSONL), and correlates via the X-Mccd-Job
// header.
func TestCompileTraceLifecycle(t *testing.T) {
	_, srv := newTestService(t)
	resp, data := postJSON(t, srv.URL+"/compile", CompileRequest{Source: tinySrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, data)
	}
	var res CompileResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.JobID == "" {
		t.Fatal("compile result has no job ID")
	}
	if got := resp.Header.Get("X-Mccd-Job"); got != res.JobID {
		t.Fatalf("X-Mccd-Job = %q, want %q", got, res.JobID)
	}

	// The job is registered and already completed.
	_, data = getBody(t, srv.URL+"/jobs/"+res.JobID)
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil || view.State != JobDone {
		t.Fatalf("job view: %v %s", err, data)
	}

	// Chrome trace: a JSON array with per-pass spans and the service
	// spans (queue-wait, cache-lookup).
	resp, data = getBody(t, srv.URL+"/jobs/"+res.JobID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d %s", resp.StatusCode, data)
	}
	var evs []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, data)
	}
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	cats := map[string]bool{}
	names := map[string]bool{}
	for _, e := range evs {
		cats[e.Cat] = true
		names[e.Name] = true
	}
	if !cats["pass"] {
		t.Fatalf("trace has no per-pass spans: cats %v", cats)
	}
	if !names["queue-wait"] || !names["cache-lookup"] {
		t.Fatalf("trace missing service spans: %v", names)
	}

	// JSONL events: every line parses, all stamped with the job ID.
	resp, data = getBody(t, srv.URL+"/jobs/"+res.JobID+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) == 0 || len(lines[0]) == 0 {
		t.Fatal("no JSONL events")
	}
	for _, line := range lines {
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad JSONL line %s: %v", line, err)
		}
		if ev.Job != res.JobID {
			t.Fatalf("event %q stamped with job %q, want %q", ev.Type, ev.Job, res.JobID)
		}
	}

	// A repeat request is a cache hit: new job, trace shows the hit.
	_, data = postJSON(t, srv.URL+"/compile", CompileRequest{Source: tinySrc})
	var res2 CompileResult
	if err := json.Unmarshal(data, &res2); err != nil {
		t.Fatal(err)
	}
	if !res2.Cached || res2.JobID == "" || res2.JobID == res.JobID {
		t.Fatalf("repeat: cached=%v job=%q (first %q)", res2.Cached, res2.JobID, res.JobID)
	}
	_, data = getBody(t, srv.URL+"/jobs/"+res2.JobID+"/events")
	if !bytes.Contains(data, []byte(`"outcome":"hit"`)) {
		t.Fatalf("cache-hit trace missing hit outcome:\n%s", data)
	}
}

// TestGridTraceAndDebugEvents: a grid job's trace has per-pass spans from
// every cell, and the pprof endpoints are mounted.
func TestGridTraceAndDebugEvents(t *testing.T) {
	_, srv := newTestService(t)
	resp, data := postJSON(t, srv.URL+"/grid", GridRequest{Programs: []string{"queens"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("grid: %d %s", resp.StatusCode, data)
	}
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	if got := waitJob(t, srv.URL, view.ID); got.State != JobDone {
		t.Fatalf("grid job: %+v", got)
	}

	resp, data = getBody(t, srv.URL+"/jobs/"+view.ID+"/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d", resp.StatusCode)
	}
	var evs []struct {
		Cat  string         `json:"cat"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	pass := 0
	machines := map[string]bool{}
	for _, e := range evs {
		if e.Cat == "pass" {
			pass++
		}
		if m, ok := e.Args["machine"].(string); ok {
			machines[m] = true
		}
	}
	if pass == 0 {
		t.Fatal("grid trace has no per-pass spans")
	}
	for _, m := range machine.All() {
		if !machines[m.Name] {
			t.Fatalf("cell stamping missing machine %s: %v", m.Name, machines)
		}
	}

	// pprof is mounted.
	resp, _ = getBody(t, srv.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof/cmdline: %d", resp.StatusCode)
	}
}

// TestTraceNotFound: unknown job IDs 404 on both trace endpoints.
func TestTraceNotFound(t *testing.T) {
	_, srv := newTestService(t)
	for _, p := range []string{"/jobs/deadbeef00000000/trace", "/jobs/deadbeef00000000/events"} {
		resp, _ := getBody(t, srv.URL+p)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", p, resp.StatusCode)
		}
	}
}

// TestTraceRetention: the job table keeps only the last RetainTraces
// completed jobs, each with its trace; an evicted job is gone from every
// /jobs endpoint at once.
func TestTraceRetention(t *testing.T) {
	s := New(Config{Workers: 2, RetainTraces: 2})
	defer s.Close(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		res, err := s.Compile(context.Background(), CompileRequest{
			Source: tinySrc, Spec: Spec{Level: []string{"simple", "loops", "jumps"}[i]},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.JobID)
	}
	if _, err := s.JobEvents(ids[0]); err == nil {
		t.Fatal("oldest trace survived past the retention limit")
	}
	if _, err := s.Job(ids[0]); err == nil {
		t.Fatal("oldest job not pruned from the job table")
	}
	for _, id := range ids[1:] {
		if evs, err := s.JobEvents(id); err != nil || len(evs) == 0 {
			t.Fatalf("retained job %s: %v (%d events)", id, err, len(evs))
		}
		if _, err := s.Job(id); err != nil {
			t.Fatalf("retained job %s missing from the table: %v", id, err)
		}
	}

	for i, id := range ids {
		want := http.StatusOK
		if i == 0 {
			want = http.StatusNotFound
		}
		for _, p := range []string{"", "/trace", "/events"} {
			if resp, _ := getBody(t, srv.URL+"/jobs/"+id+p); resp.StatusCode != want {
				t.Errorf("GET /jobs/%s%s: %d, want %d", id, p, resp.StatusCode, want)
			}
		}
	}
	_, data := getBody(t, srv.URL+"/jobs")
	var views []JobView
	if err := json.Unmarshal(data, &views); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, v := range views {
		listed[v.ID] = true
	}
	if len(views) != 2 || !listed[ids[1]] || !listed[ids[2]] {
		t.Fatalf("GET /jobs lists %s, want exactly %v", data, ids[1:])
	}
}

// TestMetricsLintAndLabeledSeries: after traffic of every kind, /metrics
// passes the in-repo exposition lint and exposes the labeled families.
func TestMetricsLintAndLabeledSeries(t *testing.T) {
	_, srv := newTestService(t)
	postJSON(t, srv.URL+"/compile", CompileRequest{Source: tinySrc})
	postJSON(t, srv.URL+"/compile", CompileRequest{Source: tinySrc}) // cache hit
	postJSON(t, srv.URL+"/measure", MeasureRequest{Program: "queens", Spec: Spec{Machine: "sparc"}})
	resp, data := postJSON(t, srv.URL+"/grid", GridRequest{Programs: []string{"queens"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("grid: %d", resp.StatusCode)
	}
	var view JobView
	json.Unmarshal(data, &view)
	waitJob(t, srv.URL, view.ID)

	_, data = getBody(t, srv.URL+"/metrics")
	out := string(data)
	if errs := obs.LintExposition(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("/metrics fails the exposition lint: %v", errs)
	}
	for _, want := range []string{
		`mccd_job_duration_seconds_bucket{kind="compile",level="JUMPS",machine="68020",le="`,
		`mccd_job_duration_seconds_bucket{kind="grid",level="JUMPS",machine="SPARC",le="`,
		`mccd_queue_wait_seconds_bucket{kind="measure",level="JUMPS",machine="SPARC",le="`,
		`mccd_cache_requests_total{kind="compile",result="hit"} 1`,
		`mccd_cache_requests_total{kind="compile",result="miss"} 1`,
		`mccd_build_info{version="`,
		"# TYPE mccd_verify_violations_by_pass_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestGridTablesDeterministicWithRecorder: the rendered tables of a
// traced, pooled grid run are byte-identical to an untraced
// bench.RunGrid on a one-worker pool — the job's trace observes without
// perturbing.
func TestGridTablesDeterministicWithRecorder(t *testing.T) {
	s, srv := newTestService(t)
	resp, data := postJSON(t, srv.URL+"/grid",
		GridRequest{Programs: []string{"queens", "wc"}, Tables: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("grid: %d", resp.StatusCode)
	}
	var view JobView
	json.Unmarshal(data, &view)
	view = waitJob(t, srv.URL, view.ID)
	if view.State != JobDone {
		t.Fatalf("grid failed: %s", view.Error)
	}
	res, err := json.Marshal(view.Result)
	if err != nil {
		t.Fatal(err)
	}
	var grid GridResult
	if err := json.Unmarshal(res, &grid); err != nil {
		t.Fatal(err)
	}
	if evs, err := s.JobEvents(view.ID); err != nil || len(evs) == 0 {
		t.Fatalf("grid job's trace: %v (%d events)", err, len(evs))
	}

	var queens, wc *bench.Program
	for _, p := range []struct {
		name string
		dst  **bench.Program
	}{{"queens", &queens}, {"wc", &wc}} {
		*p.dst = bench.ProgramByName(p.name)
	}
	pool := NewPool(1, 0)
	defer pool.Shutdown(context.Background())
	seq, err := bench.RunGrid(context.Background(), bench.GridConfig{
		Programs: []bench.Program{*queens, *wc},
		Pool:     pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	seq.WriteAll(&want, false)
	if grid.Tables != want.String() {
		t.Fatalf("tables differ with tracing enabled:\n--- daemon ---\n%s\n--- sequential ---\n%s",
			grid.Tables, want.String())
	}
}

// TestHealthzVersion: /healthz reports the configured version.
func TestHealthzVersion(t *testing.T) {
	s := New(Config{Workers: 1, Version: "test-v1"})
	defer s.Close(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	_, data := getBody(t, srv.URL+"/healthz")
	var h health
	if err := json.Unmarshal(data, &h); err != nil || h.Version != "test-v1" {
		t.Fatalf("healthz: %v %s", err, data)
	}
	_, data = getBody(t, srv.URL+"/metrics")
	if !strings.Contains(string(data), `mccd_build_info{version="test-v1"} 1`) {
		t.Fatal("mccd_build_info missing the configured version")
	}
}
