package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/pipeline"
)

const tinySrc = `int main() { int i; int n; n = 0; for (i = 0; i < 10; i = i + 1) { if (i % 2 == 0) n = n + i; } return n; }`

func newTestService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, QueueDepth: 64})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return postRaw(t, url, b)
}

// postRaw posts body as it is; postJSON would compact an oversized body's
// padding away.
func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

// postOversized posts body with spaces inserted at offset at, one byte
// over maxBodyBytes in all, and requires a 413 with an error envelope from
// a daemon that keeps serving.
func postOversized(t *testing.T, srv *httptest.Server, path, body string, at int) {
	t.Helper()
	padded := body[:at] + strings.Repeat(" ", maxBodyBytes+1-len(body)) + body[at:]
	resp, data := postRaw(t, srv.URL+path, []byte(padded))
	var eb errorBody
	if resp.StatusCode != http.StatusRequestEntityTooLarge || json.Unmarshal(data, &eb) != nil || eb.Error == "" {
		t.Errorf("%s with a %d-byte body: status %d, body %.200s", path, len(padded), resp.StatusCode, data)
	}
	if resp, _ := getBody(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after an oversized %s = %d", path, resp.StatusCode)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, data
}

func TestCompileEndpoint(t *testing.T) {
	_, srv := newTestService(t)
	resp, data := postJSON(t, srv.URL+"/compile", CompileRequest{Source: tinySrc, Spec: Spec{Machine: "sparc"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var res CompileResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if res.Assembly == "" || res.Static.StaticInsts == 0 || res.CodeBytes == 0 {
		t.Fatalf("thin result: %+v", res)
	}
	if res.Machine != "SPARC" || res.Level != "JUMPS" {
		t.Fatalf("machine/level = %s/%s", res.Machine, res.Level)
	}
	if res.Cached {
		t.Fatal("first request claims cached")
	}
}

func TestCompileCacheHitVisibleInMetrics(t *testing.T) {
	_, srv := newTestService(t)
	req := CompileRequest{Source: tinySrc, Spec: Spec{Level: "loops"}}
	if resp, data := postJSON(t, srv.URL+"/compile", req); resp.StatusCode != 200 {
		t.Fatalf("first: %d %s", resp.StatusCode, data)
	}
	_, data := postJSON(t, srv.URL+"/compile", req)
	var res CompileResult
	json.Unmarshal(data, &res)
	if !res.Cached {
		t.Fatal("identical request was not a cache hit")
	}
	if res.ElapsedNS != 0 {
		t.Fatalf("cached result reports elapsed %d ns", res.ElapsedNS)
	}
	_, metrics := getBody(t, srv.URL+"/metrics")
	if !strings.Contains(string(metrics), "mccd_cache_hits_total 1") {
		t.Fatalf("metrics missing cache hit:\n%s", metrics)
	}
	if !strings.Contains(string(metrics), "mccd_compile_requests_total 2") {
		t.Fatalf("metrics missing request count:\n%s", metrics)
	}
}

func TestCompileDifferentOptionsMiss(t *testing.T) {
	s, srv := newTestService(t)
	postJSON(t, srv.URL+"/compile", CompileRequest{Source: tinySrc, Spec: Spec{Level: "simple"}})
	postJSON(t, srv.URL+"/compile", CompileRequest{Source: tinySrc, Spec: Spec{Level: "jumps"}})
	postJSON(t, srv.URL+"/compile", CompileRequest{Source: tinySrc, Spec: Spec{Level: "jumps",
		Replication: ReplicationOptions{MaxSeqRTLs: 4}}})
	if hits := s.cache.Hits(); hits != 0 {
		t.Fatalf("distinct requests hit the cache %d times", hits)
	}
	if n := s.cache.Len(); n != 3 {
		t.Fatalf("cache holds %d entries, want 3", n)
	}
}

func TestCompileErrors(t *testing.T) {
	_, srv := newTestService(t)
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"empty source", `{}`, http.StatusUnprocessableEntity},
		{"syntax error", `{"source":"int main( {"}`, http.StatusUnprocessableEntity},
		{"bad machine", `{"source":"int main() { return 0; }","machine":"vax"}`, http.StatusUnprocessableEntity},
		{"bad level", `{"source":"int main() { return 0; }","level":"turbo"}`, http.StatusUnprocessableEntity},
		{"unknown field", `{"source":"int main() { return 0; }","sauce":1}`, http.StatusBadRequest},
		{"removed engine field", `{"source":"int main() { return 0; }","replication":{"engine":"matrix"}}`, http.StatusBadRequest},
		{"bad heuristic", `{"source":"int main() { return 0; }","replication":{"heuristic":"frequency"}}`, http.StatusUnprocessableEntity},
		{"bad json", `{`, http.StatusBadRequest},
		{"data after the value", `{"source":"int main() { return 0; }"} {"machine":"vax"} junk`, http.StatusBadRequest},
		{"whitespace after the value", "{\"source\":\"int main() { return 0; }\"} \r\n\t", http.StatusOK},
	} {
		resp, err := http.Post(srv.URL+"/compile", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, resp.StatusCode, tc.want, data)
		}
		if tc.want == http.StatusOK {
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: no error envelope in %s", tc.name, data)
		}
	}
	if resp, _ := getBody(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the bad bodies = %d", resp.StatusCode)
	}
	// The excess sits after the JSON value, where the decoder alone would
	// not read it.
	small := `{"source":"int main() { return 0; }"}`
	postOversized(t, srv, "/compile", small, len(small))
	// Data after the value does not turn an oversized body into a 400.
	postOversized(t, srv, "/compile", small+" junk", len(small))
	// Wrong method on a known path.
	resp, _ := getBody(t, srv.URL+"/compile")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile = %d, want 405", resp.StatusCode)
	}
}

func TestMeasureEndpoint(t *testing.T) {
	_, srv := newTestService(t)
	resp, data := postJSON(t, srv.URL+"/measure", MeasureRequest{
		Program: "queens", Spec: Spec{Machine: "sparc"}, IncludeOutput: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var res MeasureResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if res.Dynamic.Exec == 0 || res.Output != "92" {
		t.Fatalf("queens: exec=%d output=%q", res.Dynamic.Exec, res.Output)
	}
	// Same request again: cache hit.
	_, data = postJSON(t, srv.URL+"/measure", MeasureRequest{
		Program: "queens", Spec: Spec{Machine: "sparc"}, IncludeOutput: true,
	})
	json.Unmarshal(data, &res)
	if !res.Cached {
		t.Fatal("identical measure was not a cache hit")
	}
}

func TestMeasureInlineSourceAndInput(t *testing.T) {
	_, srv := newTestService(t)
	src := `int main() { int c; int n; n = 0; while ((c = getchar()) != -1) { n = n + 1; } return n; }`
	input := "hello"
	resp, data := postJSON(t, srv.URL+"/measure", MeasureRequest{Source: src, Input: &input})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var res MeasureResult
	json.Unmarshal(data, &res)
	if res.ExitCode != 5 {
		t.Fatalf("exit = %d, want 5 (len of input)", res.ExitCode)
	}
}

func TestMeasureValidation(t *testing.T) {
	_, srv := newTestService(t)
	for _, tc := range []struct {
		name string
		req  MeasureRequest
	}{
		{"neither", MeasureRequest{}},
		{"both", MeasureRequest{Program: "wc", Source: "int main() { return 0; }"}},
		{"unknown program", MeasureRequest{Program: "doom"}},
	} {
		resp, data := postJSON(t, srv.URL+"/measure", tc.req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d, want 422 (body %s)", tc.name, resp.StatusCode, data)
		}
	}
	postOversized(t, srv, "/measure", `{"program":"queens"}`, 1)
}

func TestGridJobLifecycle(t *testing.T) {
	_, srv := newTestService(t)
	resp, data := postJSON(t, srv.URL+"/grid", GridRequest{
		Programs: []string{"queens", "sieve"}, Tables: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	wantTotal := 2 * len(machine.All()) * len(pipeline.AllLevels())
	if view.ID == "" || view.Total != wantTotal {
		t.Fatalf("job view: %+v", view)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+view.ID {
		t.Fatalf("Location = %q", loc)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		_, data = getBody(t, srv.URL+"/jobs/"+view.ID)
		if err := json.Unmarshal(data, &view); err != nil {
			t.Fatalf("unmarshal poll: %v", err)
		}
		if view.State == JobDone || view.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q (%d/%d)", view.State, view.Done, view.Total)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.State != JobDone {
		t.Fatalf("job failed: %s", view.Error)
	}
	if view.Done != wantTotal {
		t.Fatalf("done = %d, want %d", view.Done, wantTotal)
	}
	res, err := json.Marshal(view.Result)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	var grid GridResult
	if err := json.Unmarshal(res, &grid); err != nil {
		t.Fatalf("unmarshal result: %v", err)
	}
	if len(grid.Cells) != wantTotal {
		t.Fatalf("cells = %d, want %d", len(grid.Cells), wantTotal)
	}
	if !strings.Contains(grid.Tables, "Table 4") {
		t.Fatal("rendered tables missing from result")
	}

	// The job also shows up in the listing.
	_, data = getBody(t, srv.URL+"/jobs")
	var all []JobView
	if err := json.Unmarshal(data, &all); err != nil || len(all) != 1 {
		t.Fatalf("GET /jobs: %v %s", err, data)
	}
}

func TestGridValidation(t *testing.T) {
	_, srv := newTestService(t)
	resp, _ := postJSON(t, srv.URL+"/grid", GridRequest{Programs: []string{"doom"}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown program: status = %d, want 422", resp.StatusCode)
	}
	// Cache sizes the bank cannot build, or too many of them, are
	// rejected before any cell runs, and the daemon keeps serving.
	for _, sizes := range [][]int64{{1000}, {48}, {0}, {1 << 40}, {-1024}, {8}, {2 << 20}, {16, 32, 64, 128, 256, 512, 1024, 2048, 4096}} {
		resp, body := postJSON(t, srv.URL+"/grid", GridRequest{Programs: []string{"queens"}, Caches: true, CacheSizes: sizes})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("cache_sizes %v: status = %d, want 400 (%s)", sizes, resp.StatusCode, body)
		}
	}
	if resp, _ := getBody(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after bad grids = %d", resp.StatusCode)
	}
	postOversized(t, srv, "/grid", `{"programs":["queens"]}`, 1)
	// The smallest and largest sizes are accepted.
	resp, body := postJSON(t, srv.URL+"/grid", GridRequest{Programs: []string{"queens"}, Caches: true, CacheSizes: []int64{16, 1 << 20}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cache_sizes [16, 1<<20]: status = %d, want 202 (%s)", resp.StatusCode, body)
	}
}

func TestJobNotFound(t *testing.T) {
	_, srv := newTestService(t)
	resp, _ := getBody(t, srv.URL+"/jobs/deadbeef00000000")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestHealthzAndPrograms(t *testing.T) {
	_, srv := newTestService(t)
	resp, data := getBody(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var h health
	if err := json.Unmarshal(data, &h); err != nil || h.Status != "ok" || h.Workers != 2 {
		t.Fatalf("healthz body: %s", data)
	}
	_, data = getBody(t, srv.URL+"/programs")
	var ps []programInfo
	if err := json.Unmarshal(data, &ps); err != nil || len(ps) != 14 {
		t.Fatalf("programs: %v, %d entries", err, len(ps))
	}
}

func TestQueueFullSheds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close(context.Background())

	// Park the only worker and fill the one queue slot directly.
	release := make(chan struct{})
	defer close(release)
	running := make(chan struct{})
	s.pool.Submit(context.Background(), func(context.Context) {
		close(running)
		<-release
	})
	<-running
	s.pool.Submit(context.Background(), func(context.Context) {})

	resp, data := postJSON(t, srv.URL+"/compile", CompileRequest{Source: tinySrc})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestConcurrentCompileStress drives many concurrent /compile requests
// with a mix of sources; run with -race (as CI does) it doubles as the
// subsystem's data-race check, front end through assembly printer.
func TestConcurrentCompileStress(t *testing.T) {
	_, srv := newTestService(t)
	sources := []string{
		tinySrc,
		`int main() { int i; i = 0; do { i = i + 1; } while (i < 100); return i; }`,
		`int f(int n) { if (n < 2) return n; return f(n-1) + f(n-2); } int main() { return f(12); }`,
		`int main() { int i; int s; s = 0; for (i = 0; i < 64; i = i + 1) { if (i % 3 == 0) continue; s = s + i; } return s % 251; }`,
	}
	machines := []string{"68020", "sparc", "x86"}
	levels := []string{"simple", "loops", "jumps"}
	const goroutines = 16
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < 6; i++ {
				req := CompileRequest{
					Source: sources[(g+i)%len(sources)],
					Spec: Spec{
						Machine: machines[(g+i)%len(machines)],
						Level:   levels[(g*7+i)%len(levels)],
					},
				}
				b, _ := json.Marshal(req)
				resp, err := http.Post(srv.URL+"/compile", "application/json", bytes.NewReader(b))
				if err != nil {
					errc <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				// 503 under load is legitimate shedding; anything else
				// non-200 is a bug.
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					errc <- fmt.Errorf("goroutine %d: status %d: %s", g, resp.StatusCode, body)
					return
				}
				var res CompileResult
				if resp.StatusCode == http.StatusOK {
					if err := json.Unmarshal(body, &res); err != nil || res.Assembly == "" {
						errc <- fmt.Errorf("goroutine %d: bad result: %v", g, err)
						return
					}
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
