package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/difftest"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/service"
	"repro/internal/vm"
)

// The stream's parameters. No record of real mccd traffic exists, so
// they are assumptions, not measurements: the shape (mostly /compile, some
// /measure, client spellings, a tv share, Zipf popularity) is the
// benchmark's specification, and the numbers below fill it in. README.md
// lists each with its source.
const (
	// mccdPassRequests is the request budget of one pass; the Zipf quotas
	// round it (see buildStream).
	mccdPassRequests = 2400
	// mccdClients is the closed loop's client count (nproc on the
	// reference host is 2).
	mccdClients = 2
	// mccdMeasureShare is the share of the request budget spent on
	// /measure; the rest is /compile. Assumed.
	mccdMeasureShare = 0.15
	// mccdGenerated is how many generated sources join the Table-3 ones,
	// and mccdGenBudget their generator statement budget: small structured
	// programs that compile in 5–80 ms. Assumed. Goto machines are left
	// out: their compile time ranges up to 0.5 s, so the seed's draw of
	// them would swing a pass's cost (the fuzz-oracle workload covers
	// them).
	mccdGenerated = 12
	mccdGenBudget = 6
	// mccdTVEvery: every fourth occurrence of a compile key asks for
	// translation validation. Assumed.
	mccdTVEvery = 4
)

// Client spellings of machines and levels: the canonical lower-case
// names, the empty defaults the CI smoke clients rely on, and the
// variants the benchmark's specification names ("i386", "jumps" and
// "JUMPS"). mccd canonicalizes machine names before its cache key but
// hashes the level string raw, so the three JUMPS spellings are three
// cache entries.
var (
	machineSpellings = map[string][]string{
		"68020": {"", "68020"},
		"SPARC": {"sparc"},
		"x86":   {"x86", "i386"},
	}
	levelSpellings = map[pipeline.Level][]string{
		pipeline.Simple: {"simple"},
		pipeline.Loops:  {"loops"},
		pipeline.Jumps:  {"", "jumps", "JUMPS"},
		pipeline.Dups:   {"dups"},
	}
)

// mccdKey is one canonical request: what the service computes, whatever
// the spelling.
type mccdKey struct {
	measure bool
	name    string
	src     string
	m       *machine.Machine
	lv      pipeline.Level
	// generated: the source comes from the program generator.
	generated bool
}

// mccdReq is one request of the stream.
type mccdReq struct {
	key  int
	path string
	body []byte
	tv   bool
}

// mccdMiss is a request the service answered uncached, replayed after the
// traced loop.
type mccdMiss struct {
	key int
	tv  bool
}

// mccdMix is the mccd-mix workload: an in-process service behind a
// loopback HTTP server, driven by a closed loop of two clients. A pass
// starts a fresh service and sends the seeded request stream: mostly
// /compile of Table-3 and small generated sources, some /measure (cache
// bank on) of Table-3 programs, levels and machines spelled as clients
// spell them, a share with tv. Key popularity follows a Zipf law, so most
// requests repeat an earlier key: cache hits set the median latency and
// compile misses the tail.
type mccdMix struct {
	seed   int64
	budget int
	keys   []mccdKey
	reqs   []mccdReq
	refs   map[string]reference
	op     atomic.Int64
	hits   int // requests that repeat an earlier (key, level spelling, tv) in the pass
	// misses are the traced loop's uncached replies, in arrival order.
	mu     sync.Mutex
	misses []mccdMiss
	// order reshuffles the requests before every pass: the requests, and
	// so the counts, stay the same, while a run averages over several of
	// the seed's orders (the order decides how often two clients miss the
	// same key at once, and which requests meet a busy worker).
	order *rand.Rand
}

func newMccdMix(seed int64, budget int) *mccdMix {
	return &mccdMix{seed: seed, budget: budget}
}

func (w *mccdMix) setup() error {
	refs, err := references(bench.Programs())
	if err != nil {
		return err
	}
	w.refs = refs
	w.buildStream()
	// Warm-up: a throwaway service answering one compile and one measure.
	p := bench.Programs()[0]
	return withService(func(srv *httptest.Server) error {
		for _, path := range []string{"/compile", "/measure"} {
			body := fmt.Sprintf(`{"source":%q}`, p.Source)
			if path == "/measure" {
				body = fmt.Sprintf(`{"program":%q}`, p.Name)
			}
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body) // the status decides, not the body
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("warm-up %s: status %d", path, resp.StatusCode)
			}
		}
		return nil
	})
}

// withService runs fn against a fresh in-process service and stops both
// the server and the service before returning.
func withService(fn func(*httptest.Server) error) error {
	svc := service.New(service.Config{})
	srv := httptest.NewServer(svc.Handler())
	err := fn(srv)
	srv.Close() // waits for outstanding requests
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if cerr := svc.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// buildStream makes the pass's keys and requests from the seed. The
// compile and the measure keys each have a fixed popularity ranking:
// Table-3 order, then the generated sources. The key of rank r gets
// max(1, round(B·w_r)) requests of its kind's budget B, w_r ∝ 1/r (Zipf,
// s = 1). Occurrence i of a key takes the i-th spelling (from a seeded
// offset) and every mccdTVEvery-th one asks for tv, so the number of
// distinct cache entries per key does not depend on the seed. The seed
// draws the generated sources, the spelling offsets and the request
// orders.
func (w *mccdMix) buildStream() {
	rng := rand.New(rand.NewSource(w.seed))
	progs := bench.Programs()
	w.keys = w.keys[:0]
	for _, p := range progs {
		for _, m := range machine.All() {
			for _, lv := range pipeline.AllLevels() {
				w.keys = append(w.keys, mccdKey{name: p.Name, src: p.Source, m: m, lv: lv})
			}
		}
	}
	levels := pipeline.AllLevels()
	for i := 0; i < mccdGenerated; i++ {
		gs := rng.Int63n(1 << 30)
		w.keys = append(w.keys, mccdKey{
			name:      "gen" + strconv.FormatInt(gs, 10),
			generated: true,
			src:       difftest.GenerateWith(gs, difftest.GenOptions{StmtBudget: mccdGenBudget, NoGoto: true}),
			m:         machine.All()[rng.Intn(len(machine.All()))],
			lv:        levels[rng.Intn(len(levels))],
		})
	}
	// One measure key per (program, machine), its level rotating through
	// all four so the measured counts mix every level.
	for pi, p := range progs {
		for mi, m := range machine.All() {
			lv := levels[(pi+mi)%len(levels)]
			w.keys = append(w.keys, mccdKey{measure: true, name: p.Name, src: p.Source, m: m, lv: lv})
		}
	}

	w.reqs = w.reqs[:0]
	w.hits = 0
	seen := map[string]bool{}
	for _, measure := range []bool{false, true} {
		// The group's keys in rank order: Table-3 keys in table order,
		// then the generated sources — one-off programs, least popular.
		var group, generated []int
		for k := range w.keys {
			switch {
			case w.keys[k].measure != measure:
			case w.keys[k].generated:
				generated = append(generated, k)
			default:
				group = append(group, k)
			}
		}
		group = append(group, generated...)
		budget := float64(w.budget) * (1 - mccdMeasureShare)
		if measure {
			budget = float64(w.budget) * mccdMeasureShare
		}
		h := 0.0
		for r := 1; r <= len(group); r++ {
			h += 1 / float64(r)
		}
		for r, k := range group {
			n := int(math.Max(1, math.Round(budget/(float64(r+1)*h))))
			key := &w.keys[k]
			ms, ls := machineSpellings[key.m.Name], levelSpellings[key.lv]
			mo, lo, to := rng.Intn(len(ms)), rng.Intn(len(ls)), rng.Intn(mccdTVEvery)
			for i := 0; i < n; i++ {
				req := map[string]any{"machine": ms[(i+mo)%len(ms)], "level": ls[(i+lo)%len(ls)]}
				path, tv := "/compile", false
				if measure {
					path = "/measure"
					req["program"], req["caches"], req["output"] = key.name, true, true
				} else {
					req["source"] = key.src
					if tv = (i+to)%mccdTVEvery == 0; tv {
						req["tv"] = true
					}
				}
				body, _ := json.Marshal(req) // a map of strings and bools always encodes
				// The service's own cache key: machine canonical, level raw.
				id := fmt.Sprintf("%d|%v|%v", k, req["level"], req["tv"])
				if seen[id] {
					w.hits++
				}
				seen[id] = true
				w.reqs = append(w.reqs, mccdReq{key: k, path: path, body: body, tv: tv})
			}
		}
	}
	w.order = rng
}

func (w *mccdMix) passOps() int { return len(w.reqs) }
func (w *mccdMix) describe() string {
	measures, tvs := 0, 0
	for _, r := range w.reqs {
		if r.path == "/measure" {
			measures++
		}
		if r.tv {
			tvs++
		}
	}
	n := float64(len(w.reqs))
	return fmt.Sprintf("%d requests per pass over %d keys, %d clients; stream repeat share %.3f, measure share %.3f, tv share %.3f",
		len(w.reqs), len(w.keys), mccdClients, float64(w.hits)/n, float64(measures)/n, float64(tvs)/n)
}

// compileReply and measureReply are the response fields the checks and
// counts read.
// Everything but Cached, ElapsedNS and JobID must repeat for one key,
// whatever its spelling.
type compileReply struct {
	Machine   string          `json:"machine"`
	Level     string          `json:"level"`
	Assembly  string          `json:"assembly"`
	Static    json.RawMessage `json:"static"`
	CodeBytes int64           `json:"code_bytes"`
	Cached    bool            `json:"cached"`
	ElapsedNS int64           `json:"elapsed_ns"`
	JobID     string          `json:"job_id"`
}

type measureReply struct {
	Machine   string          `json:"machine"`
	Level     string          `json:"level"`
	Static    json.RawMessage `json:"static"`
	Dynamic   vm.Counts       `json:"dynamic"`
	CodeBytes int64           `json:"code_bytes"`
	ExitCode  int64           `json:"exit_code"`
	Caches    []cache.Stats   `json:"caches"`
	Output    string          `json:"output"`
	Cached    bool            `json:"cached"`
	ElapsedNS int64           `json:"elapsed_ns"`
	JobID     string          `json:"job_id"`
}

// passState is what one pass's clients share.
type passState struct {
	mu     sync.Mutex
	first  map[int][32]byte // canonical key -> digest of its first reply
	pr     passResult
	next   atomic.Int64
	client *http.Client
	url    string
}

func (w *mccdMix) pass(tr *tracer) (*passResult, error) {
	w.order.Shuffle(len(w.reqs), func(i, j int) { w.reqs[i], w.reqs[j] = w.reqs[j], w.reqs[i] })
	st := &passState{first: map[int][32]byte{}}
	st.pr.lat = make([]float64, 0, len(w.reqs))
	tp := &http.Transport{MaxIdleConnsPerHost: mccdClients}
	defer tp.CloseIdleConnections()
	st.client = &http.Client{Transport: tp}
	err := withService(func(srv *httptest.Server) error {
		st.url = srv.URL
		var wg sync.WaitGroup
		for c := 0; c < mccdClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(st.next.Add(1)) - 1
					if i >= len(w.reqs) {
						return
					}
					w.do(st, tr, &w.reqs[i])
				}
			}()
		}
		wg.Wait()
		if tr != nil {
			return w.scrapeMetrics(st, tr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &st.pr, nil
}

// do sends one request, times it, and checks and counts the reply.
func (w *mccdMix) do(st *passState, tr *tracer, r *mccdReq) {
	op := w.op.Add(1)
	start := time.Now()
	resp, err := st.client.Post(st.url+r.path, "application/json", bytes.NewReader(r.body))
	var body []byte
	status := 0
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	end := time.Now()
	lat := float64(end.Sub(start).Nanoseconds()) / 1e6

	key := &w.keys[r.key]
	var n counts
	var digest [32]byte
	var cached bool
	var elapsedNS int64
	var jobID string
	var static json.RawMessage
	fail := ""
	switch {
	case err != nil:
		fail = err.Error()
	case status != http.StatusOK:
		fail = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
	case key.measure:
		var m measureReply
		if err := json.Unmarshal(body, &m); err != nil {
			fail = err.Error()
			break
		}
		cached, elapsedNS, jobID, static = m.Cached, m.ElapsedNS, m.JobID, m.Static
		n.addRun(m.Dynamic)
		n.CodeBytes = m.CodeBytes
		n.ICacheMisses = bankMisses(m.Caches)
		if ref := w.refs[key.name]; m.Output != string(ref.output) || m.ExitCode != ref.exit {
			fail = "output or exit code differs from the unoptimized reference"
		}
		m.Cached, m.ElapsedNS, m.JobID = false, 0, ""
		digest = digestOf(m)
	default:
		var c compileReply
		if err := json.Unmarshal(body, &c); err != nil {
			fail = err.Error()
			break
		}
		cached, elapsedNS, jobID, static = c.Cached, c.ElapsedNS, c.JobID, c.Static
		n.CodeBytes = c.CodeBytes
		c.Cached, c.ElapsedNS, c.JobID = false, 0, ""
		digest = digestOf(c)
	}

	st.mu.Lock()
	if fail == "" {
		if d, ok := st.first[r.key]; !ok {
			st.first[r.key] = digest
		} else if d != digest {
			fail = "reply differs from the first reply for the same key"
		}
	}
	st.pr.lat = append(st.pr.lat, lat)
	st.pr.counts.add(n)
	if fail != "" {
		st.pr.failed++
	}
	st.mu.Unlock()
	if fail != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s %s %s/%s: %s\n", r.path, key.name, key.m.Name, key.lv, fail)
	}

	if tr == nil {
		return
	}
	id := tr.record("request", 0, op, start, end)
	tr.add("service.requests", 1)
	tr.add("service.http_ms", lat-float64(elapsedNS)/1e6)
	if cached {
		tr.sample("service.hit_p50_ms", lat)
	} else {
		tr.sample("service.miss_p50_ms", lat)
	}
	if jobID == "" {
		return
	}
	var stats *pipeline.Stats
	if fail == "" && !cached {
		// The service compiled: its statistics are in the reply, its
		// pipeline spans in the job trace, and the layers it does not
		// time are replayed after the traced loop.
		stats = new(pipeline.Stats)
		if err := json.Unmarshal(static, stats); err != nil {
			tr.add("service.trace_errors", 1)
			stats = nil
		}
		w.mu.Lock()
		w.misses = append(w.misses, mccdMiss{key: r.key, tv: r.tv})
		w.mu.Unlock()
	}
	w.jobSpans(st, tr, id, op, jobID, stats)
}

// digestOf hashes the reply fields that must repeat for one key.
func digestOf(v any) [32]byte {
	b, _ := json.Marshal(v) // plain structs always encode
	return sha256.Sum256(b)
}

// jobEvent is one event of a job's trace: the telemetry event the Chrome
// trace_event JSON of GET /jobs/{id}/trace carries in its args.
type jobEvent struct {
	Type       string `json:"type"`
	Name       string `json:"name"`
	Func       string `json:"func"`
	RTLsBefore int    `json:"rtls_before"`
	RTLsAfter  int    `json:"rtls_after"`
	TimeNS     int64  `json:"t_ns"`
	DurNS      int64  `json:"dur_ns"`
}

// jobSpans reads the job's trace from GET /jobs/{id}/trace and records
// its service-level spans (queue wait, cache lookup) under the request.
// For a job that compiled (stats non-nil) it also records the pipeline:
// a pipeline span from the first optimize-func event's start to the last
// one's end, the EvPass events as pass spans under it, and the
// pipeline.* and replicate.* counts.
func (w *mccdMix) jobSpans(st *passState, tr *tracer, parent int, op int64, jobID string, stats *pipeline.Stats) {
	resp, err := st.client.Get(st.url + "/jobs/" + jobID + "/trace")
	if err != nil {
		tr.add("service.trace_errors", 1)
		return
	}
	defer resp.Body.Close()
	var evs []struct {
		Args jobEvent `json:"args"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		tr.add("service.trace_errors", 1)
		return
	}
	span := func(name string, parent int, e *jobEvent) int {
		start := time.Unix(0, e.TimeNS)
		return tr.record(name, parent, op, start, start.Add(time.Duration(e.DurNS)))
	}
	var optStart, optEnd int64
	var rtlsIn, rtlsOut int
	seen := map[string]bool{} // functions whose first pass has been seen
	for i := range evs {
		e := &evs[i].Args
		switch {
		case e.Type == obs.EvPhase && (e.Name == "queue-wait" || e.Name == "cache-lookup"):
			span("service."+e.Name, parent, e)
			if e.Name == "queue-wait" {
				tr.sample("service.queue_wait_p50_ms", float64(e.DurNS)/1e6)
			}
		case e.Type == obs.EvPhase && e.Name == "optimize-func":
			if optStart == 0 || e.TimeNS < optStart {
				optStart = e.TimeNS
			}
			optEnd = max(optEnd, e.TimeNS+e.DurNS)
			rtlsOut += e.RTLsAfter
		case e.Type == obs.EvPass && !seen[e.Func]:
			seen[e.Func] = true
			rtlsIn += e.RTLsBefore
		}
	}
	if stats == nil || optStart == 0 {
		return
	}
	pid := tr.record("pipeline", parent, op, time.Unix(0, optStart), time.Unix(0, optEnd))
	for i := range evs {
		if e := &evs[i].Args; e.Type == obs.EvPass {
			span("pass."+e.Name, pid, e)
		}
	}
	addPipelineStats(tr, *stats, rtlsIn, rtlsOut)
}

// scrapeMetrics reads the pass's cache and error totals from /metrics.
func (w *mccdMix) scrapeMetrics(st *passState, tr *tracer) error {
	resp, err := st.client.Get(st.url + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case "mccd_cache_hits_total":
			tr.add("service.cache_hits", v)
		case "mccd_cache_misses_total":
			tr.add("service.cache_misses", v)
		case "mccd_errors_total":
			tr.add("service.errors", v)
		}
	}
	return nil
}

// traceExtra sets the hit ratio and replays every uncached reply of the
// traced loop, serially, through the layers below the service that the
// service does not time separately: mcc, tv (where the request asked for
// it), asm and encode for /compile; mcc, encode, vm and the cache bank
// for /measure. The replay runs the pipeline too, for those layers'
// input, but its figures come from the job traces (see jobSpans); only
// pipeline.allocs is the replay's.
func (w *mccdMix) traceExtra(tr *tracer) error {
	if n := tr.counts["service.trace_errors"]; n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %g job traces could not be read\n", n)
	}
	hits, misses := tr.counts["service.cache_hits"], tr.counts["service.cache_misses"]
	tr.add("service.hit_ratio", hits/(hits+misses))
	var log fetchLog
	for _, miss := range w.misses {
		k := &w.keys[miss.key]
		op := w.op.Add(1)
		root := tr.open("replay", 0, op)
		spec := cellSpec{src: k.src, m: k.m, lv: k.lv, jobs: 1, tv: miss.tv, listing: !k.measure, replay: true}
		if k.measure {
			spec.input = []byte(bench.ProgramByName(k.name).Input)
			spec.run, spec.caches = true, true
		}
		_, err := tracedCell(tr, op, root, spec, &log)
		tr.close(root)
		if err != nil {
			return fmt.Errorf("replay of key %d (%s %s/%s): %w", miss.key, k.name, k.m.Name, k.lv, err)
		}
	}
	w.misses = nil
	return nil
}
