package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/bench"
	icache "repro/internal/cache"
	"repro/internal/ease"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/replicate"
	"repro/internal/verify"
	"repro/internal/vm"
)

// Errors the HTTP layer maps to status codes.
var (
	// ErrClosed reports a request after Close began.
	ErrClosed = errors.New("service: shutting down")
	// ErrNotFound reports an unknown job ID or program name.
	ErrNotFound = errors.New("service: not found")
)

// badRequestError marks client mistakes as opposed to server-side
// failures: a field value outside its allowed range (malformed, HTTP 400)
// or a request the service cannot process (HTTP 422).
type badRequestError struct {
	msg       string
	malformed bool
}

func (e *badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

func malformedf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...), malformed: true}
}

// Config sizes the service.
type Config struct {
	// Workers is the pool size (<= 0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the work queue (<= 0 = 4x workers).
	QueueDepth int
	// CacheEntries bounds the result cache (<= 0 = DefaultCacheEntries).
	CacheEntries int
	// JobTimeout bounds one synchronous compile/measure job (0 = 2m).
	JobTimeout time.Duration
	// GridTimeout bounds one async grid job (0 = 15m).
	GridTimeout time.Duration
	// FlightRecorderSize bounds the global event ring behind GET
	// /debug/events (<= 0 = obs.DefaultFlightRecorderSize).
	FlightRecorderSize int
	// RetainTraces bounds how many completed jobs keep their full trace
	// for GET /jobs/{id}/trace (<= 0 = DefaultRetainTraces).
	RetainTraces int
	// Version overrides the build version reported by GET /healthz and
	// the mccd_build_info metric ("" = ResolveVersion()).
	Version string
	// Logf, when non-nil, receives one line per noteworthy event.
	Logf func(format string, args ...any)
}

func (c Config) jobTimeout() time.Duration {
	if c.JobTimeout <= 0 {
		return 2 * time.Minute
	}
	return c.JobTimeout
}

func (c Config) gridTimeout() time.Duration {
	if c.GridTimeout <= 0 {
		return 15 * time.Minute
	}
	return c.GridTimeout
}

// metrics is the service's counter set, registered on one obs.Registry
// and rendered by GET /metrics.
type metrics struct {
	reg *obs.Registry

	reqCompile  *obs.Counter
	reqMeasure  *obs.Counter
	reqGrid     *obs.Counter
	errors      *obs.Counter
	gridCells   *obs.Counter
	compileRTLs *obs.Counter
	verifyViol  *obs.Counter
	latency     *obs.Histogram
	throughput  *obs.Histogram

	// Labeled families behind the debug plane: end-to-end and queue-wait
	// latency by {kind, level, machine}, cache lookups by {kind, result},
	// and verifier violations by offending pass.
	jobDur       *obs.HistogramVec
	queueWait    *obs.HistogramVec
	cacheReq     *obs.CounterVec
	verifyByPass *obs.CounterVec
	tvRej        *obs.CounterVec
}

// observeVerify feeds the verifier-violation counters: the legacy total
// plus the per-pass family (verify-each attributes each violation to the
// pass that introduced it). Translation-validation rejections are counted
// in their own family instead — a rejected duplication certificate is an
// optimizer-correctness signal, not a semantic-verifier one.
func (m *metrics) observeVerify(vs []verify.Violation) {
	for _, v := range vs {
		if v.Rule == verify.RuleTranslation {
			m.tvRej.WithLabelValues(v.Pass).Inc()
			continue
		}
		m.verifyViol.Inc()
		m.verifyByPass.WithLabelValues(v.Pass).Inc()
	}
}

// observeThroughput feeds the compile-throughput metrics from one optimize
// run: rtls is the program size entering the optimizer, elapsed the wall
// time of the optimize phase alone (cache hits never get here, so the
// histogram only reflects real compiles).
func (m *metrics) observeThroughput(rtls int, elapsed time.Duration) {
	if rtls <= 0 || elapsed <= 0 {
		return
	}
	m.compileRTLs.Add(int64(rtls))
	m.throughput.Observe(float64(rtls) / elapsed.Seconds())
}

func newMetrics(pool *Pool, cache *Cache, jobsRunning func() int64, version string) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}
	m.reqCompile = reg.Counter("mccd_compile_requests_total", "POST /compile requests accepted")
	m.reqMeasure = reg.Counter("mccd_measure_requests_total", "POST /measure requests accepted")
	m.reqGrid = reg.Counter("mccd_grid_requests_total", "POST /grid jobs accepted")
	m.errors = reg.Counter("mccd_errors_total", "requests that ended in an error")
	m.gridCells = reg.Counter("mccd_grid_cells_total", "grid cells measured")
	reg.CounterFunc("mccd_cache_hits_total", "result cache hits", cache.Hits)
	reg.CounterFunc("mccd_cache_misses_total", "result cache misses", cache.Misses)
	reg.CounterFunc("mccd_cache_evictions_total", "result cache LRU evictions", cache.Evictions)
	reg.GaugeFunc("mccd_cache_entries", "result cache occupancy", func() int64 { return int64(cache.Len()) })
	reg.GaugeFunc("mccd_queue_depth", "tasks waiting in the work queue", func() int64 { return int64(pool.QueueDepth()) })
	reg.GaugeFunc("mccd_workers", "worker pool size", func() int64 { return int64(pool.Workers()) })
	reg.GaugeFunc("mccd_workers_busy", "workers currently running a task", pool.Busy)
	reg.CounterFunc("mccd_tasks_completed_total", "pool tasks completed", pool.Completed)
	reg.CounterFunc("mccd_task_panics_total", "pool tasks that panicked", pool.Panics)
	reg.GaugeFunc("mccd_jobs_running", "async jobs currently queued or running", jobsRunning)
	m.latency = reg.Histogram("mccd_job_seconds", "per-job wall time (compile, measure, grid cell)", nil)
	m.compileRTLs = reg.Counter("mccd_compile_rtls_total", "RTL instructions fed into the optimizer (cache misses only)")
	m.verifyViol = reg.Counter("mccd_verify_violations_total", "semantic verifier violations reported by verify-each requests")
	m.throughput = reg.Histogram("mccd_compile_rtls_per_second", "optimizer throughput per compile in input RTLs/sec", obs.ThroughputBuckets)
	m.jobDur = reg.HistogramVec("mccd_job_duration_seconds",
		"end-to-end job latency (grid jobs: per cell)", []string{"kind", "level", "machine"}, nil)
	m.queueWait = reg.HistogramVec("mccd_queue_wait_seconds",
		"time a job spent waiting in the work queue (grid jobs: per cell)", []string{"kind", "level", "machine"}, nil)
	m.cacheReq = reg.CounterVec("mccd_cache_requests_total",
		"result cache lookups by request kind and outcome", []string{"kind", "result"})
	m.verifyByPass = reg.CounterVec("mccd_verify_violations_by_pass_total",
		"semantic verifier violations by the pass that introduced them", []string{"pass"})
	m.tvRej = reg.CounterVec("mccd_tv_rejections_total",
		"duplication certificates rejected by the translation validator, by emitting pass", []string{"pass"})
	reg.GaugeVec("mccd_build_info",
		"build version carried in the labels; the value is always 1", []string{"version"}).
		WithLabelValues(version).Set(1)
	return m
}

// Service is the compile-and-measure engine behind cmd/mccd: one worker
// pool, one content-addressed result cache, and an async job table.
type Service struct {
	cfg      Config
	pool     *Pool
	cache    *Cache
	met      *metrics
	recorder *obs.FlightRecorder
	traces   *traceStore
	version  string

	// baseCtx parents every grid job; cancel aborts them if a drain
	// deadline expires.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool
	grids  sync.WaitGroup // running grid coordinators, waited on by Close
}

// New builds and starts a service.
func New(cfg Config) *Service {
	s := &Service{
		cfg:      cfg,
		pool:     NewPool(cfg.Workers, cfg.QueueDepth),
		cache:    NewCache(cfg.CacheEntries),
		recorder: obs.NewFlightRecorder(cfg.FlightRecorderSize),
		traces:   newTraceStore(cfg.RetainTraces),
		version:  cfg.Version,
		jobs:     make(map[string]*Job),
	}
	if s.version == "" {
		s.version = ResolveVersion()
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.met = newMetrics(s.pool, s.cache, s.jobsRunning, s.version)
	return s
}

// Version returns the effective build version.
func (s *Service) Version() string { return s.version }

// JobEvents returns the retained trace of a job (running, or among the
// last RetainTraces completed ones).
func (s *Service) JobEvents(id string) ([]*obs.Event, error) {
	evs, ok := s.traces.events(id)
	if !ok {
		return nil, ErrNotFound
	}
	return evs, nil
}

// jobTracer builds the tracer that records one job's span tree: events
// fan out to the job's retained trace and the global flight recorder,
// each stamped with the job ID.
func (s *Service) jobTracer(id string) obs.Tracer {
	return obs.WithJob(id, obs.Multi(s.traces.begin(id), s.recorder))
}

// beginJob registers a synchronous job in the job table and starts its
// trace. Asynchronous grid jobs register inline in SubmitGrid (their
// insertion is atomic with the grids waitgroup) and call jobTracer
// directly.
func (s *Service) beginJob(job *Job) (obs.Tracer, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.jobs[job.ID()] = job
	s.mu.Unlock()
	return s.jobTracer(job.ID()), nil
}

// finishJob completes a job and prunes the job table in step with trace
// retention, so /jobs stays bounded by the last RetainTraces completed
// jobs (running jobs are never pruned).
func (s *Service) finishJob(job *Job, result any, err error) {
	job.finish(result, err)
	evicted := s.traces.complete(job.ID())
	if len(evicted) == 0 {
		return
	}
	s.mu.Lock()
	for _, id := range evicted {
		delete(s.jobs, id)
	}
	s.mu.Unlock()
}

// Registry exposes the metric registry (for GET /metrics and tests).
func (s *Service) Registry() *obs.Registry { return s.met.reg }

// Pool exposes the worker pool so callers (cmd/mccd's grid path, tests)
// can share it.
func (s *Service) Pool() *Pool { return s.pool }

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Service) jobsRunning() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, j := range s.jobs {
		if st := j.State(); st == JobQueued || st == JobRunning {
			n++
		}
	}
	return n
}

// Close drains the service: new requests are rejected, running grid jobs
// and queued pool tasks finish (until ctx expires, at which point grids
// are canceled), and the pool shuts down.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.grids.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		s.cancel() // abort in-flight grids; their coordinators will exit
		<-drained
		err = ctx.Err()
	}
	if e := s.pool.Shutdown(ctx); err == nil {
		err = e
	}
	s.cancel()
	return err
}

func (s *Service) checkOpen() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return nil
}

// ReplicationOptions is the wire form of replicate.Options.
type ReplicationOptions struct {
	// Heuristic picks the candidate order: "", "shortest", "returns" or
	// "loops".
	Heuristic string `json:"heuristic,omitempty"`
	// MaxSeqRTLs caps replicated RTLs per jump (0 = unlimited; negative
	// is a 400).
	MaxSeqRTLs int `json:"maxseq,omitempty"`
	// AllowIndirect enables the §6 indirect-jump extension.
	AllowIndirect bool `json:"indirect,omitempty"`
}

// CompileOptions is the wire form of pipeline.Spec, which POST /compile,
// POST /measure and POST /grid all carry; its fields sit at the top level
// of each body.
type CompileOptions struct {
	Replication ReplicationOptions `json:"replication,omitempty"`
	// VerifyEach runs the semantic IR verifier after every pipeline pass.
	// Violations, attributed to the offending pass, come back as
	// structured diagnostics in Static.Verify; in a grid, the first one
	// fails the job with the violation text as its error.
	VerifyEach bool `json:"verify_each,omitempty"`
	// TV runs the translation validator over the duplication engine:
	// every applied duplication must present a certificate that passes
	// cut-point bisimulation checking. Rejections come back in
	// Static.Verify with rule "translation-validation", are counted in the
	// mccd_tv_rejections_total metric, and fail a grid job.
	TV bool `json:"tv,omitempty"`
}

// resolve maps the wire options to the pipeline.Spec the optimizer gets;
// /compile, /measure and /grid all check their options here.
func (o CompileOptions) resolve() (pipeline.Spec, error) {
	h, err := replicate.ParseHeuristic(o.Replication.Heuristic)
	if err != nil {
		return pipeline.Spec{}, badRequestf("%v", err)
	}
	if err := replicate.CheckMaxSeq(o.Replication.MaxSeqRTLs); err != nil {
		return pipeline.Spec{}, malformedf("%v", err)
	}
	return pipeline.Spec{
		Replication: replicate.Options{
			Heuristic:     h,
			MaxSeqRTLs:    o.Replication.MaxSeqRTLs,
			AllowIndirect: o.Replication.AllowIndirect,
		},
		VerifyEach: o.VerifyEach,
		TV:         o.TV,
	}, nil
}

// Spec is the compile configuration that POST /compile and POST /measure
// both carry; its fields sit at the top level of either body.
type Spec struct {
	// Machine is any registered machine name or alias — "68020" (default),
	// "sparc", "x86", ... (see machine.Names).
	Machine string `json:"machine,omitempty"`
	// Level is "simple", "loops", "jumps" (default) or "dups", in any
	// case.
	Level string `json:"level,omitempty"`
	CompileOptions
}

// resolve maps the wire spelling to the configuration that reaches the
// optimizer. The cache keys are built from its result, so every spelling
// of one configuration ("" = "jumps" = "JUMPS", "i386" = "x86",
// heuristic "" = "shortest") shares one entry.
func (s Spec) resolve() (pipeline.Config, error) {
	c := pipeline.Config{Machine: machine.M68020, Level: pipeline.Jumps}
	var err error
	if s.Machine != "" {
		if c.Machine, err = machine.ByName(s.Machine); err != nil {
			return c, badRequestf("%v", err)
		}
	}
	if s.Level != "" {
		if c.Level, err = pipeline.ParseLevel(s.Level); err != nil {
			return c, badRequestf("%v", err)
		}
	}
	c.Spec, err = s.CompileOptions.resolve()
	return c, err
}

// config folds a resolved configuration into a cache key: every value of
// it a request can set, in canonical form.
func (b *keyBuilder) config(c pipeline.Config) {
	b.str(c.Machine.Name)
	b.str(c.Level.String())
	b.str(c.Replication.Heuristic.String())
	b.int(int64(c.Replication.MaxSeqRTLs))
	b.bool(c.Replication.AllowIndirect)
	b.bool(c.VerifyEach)
	b.bool(c.TV)
}

// Served is the part of a /compile or /measure response that says how
// the request was served rather than what it computed.
type Served struct {
	// Cached reports whether this response was served from the
	// content-addressed cache.
	Cached bool `json:"cached"`
	// ElapsedNS is the wall time of the compile or measurement (0 when
	// Cached).
	ElapsedNS int64 `json:"elapsed_ns"`
	// JobID identifies this request's trace: GET /jobs/{id}/trace and
	// /jobs/{id}/events replay it while it is retained.
	JobID string `json:"job_id,omitempty"`
}

// served gives serve the Served part of either response type.
func (sv *Served) served() *Served { return sv }

// syncJob is one /compile or /measure request on the path they share:
// check validates its request-specific fields, key folds them into the
// cache key after the resolved configuration, and run does a cache miss's
// work on a worker (c.Tracer is the job's tracer).
type syncJob[P any] struct {
	kind     string
	spec     Spec
	requests *obs.Counter
	check    func() error
	key      func(b *keyBuilder)
	run      func(c pipeline.Config) (P, error)
}

// serve is the request path /compile and /measure share: open check,
// request check, resolve, job, cache lookup, then on a miss the worker
// pool and a cache store. The response is a private copy, marked cached
// on a hit and stamped with the job ID; mutating it is safe.
func serve[R any, P interface {
	*R
	served() *Served
}](ctx context.Context, s *Service, j syncJob[P]) (P, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	if err := j.check(); err != nil {
		return nil, err
	}
	c, err := j.spec.resolve()
	if err != nil {
		return nil, err
	}
	j.requests.Inc()

	job := newJob(j.kind, 1)
	tr, err := s.beginJob(job)
	if err != nil {
		return nil, err
	}
	job.start()
	c.Tracer = tr
	meta := jobMeta{kind: j.kind, level: c.Level.String(), machine: c.Machine.Name, tracer: tr}

	b := newKeyBuilder(j.kind)
	b.config(c)
	j.key(b)
	key := b.sum()
	v, hit := s.lookupCache(key, meta)
	if !hit {
		v, err = s.runSync(ctx, meta, func(context.Context) (any, error) { return j.run(c) })
		if err != nil {
			s.met.errors.Inc()
			s.finishJob(job, nil, err)
			return nil, err
		}
		s.cache.Put(key, v)
	}
	out := P(new(R))
	*out = *v.(P)
	sv := out.served()
	if hit {
		sv.Cached, sv.ElapsedNS = true, 0
	}
	sv.JobID = job.ID()
	job.step()
	s.finishJob(job, out, nil)
	return out, nil
}

// CompileRequest is the body of POST /compile.
type CompileRequest struct {
	// Source is the mini-C translation unit.
	Source string `json:"source"`
	Spec
}

// CompileResult is the body of a successful POST /compile response.
type CompileResult struct {
	Machine string `json:"machine"`
	Level   string `json:"level"`
	// Assembly is the optimized program in target assembly syntax.
	Assembly string `json:"assembly"`
	// Static carries the pipeline statistics, including the
	// replicate.Result counters (replications, jumps deleted, rollbacks,
	// RTLs copied).
	Static    pipeline.Stats `json:"static"`
	CodeBytes int64          `json:"code_bytes"`
	Served
}

// Compile compiles req through the worker pool, serving repeats from the
// cache. The returned result is a private copy; mutating it is safe.
func (s *Service) Compile(ctx context.Context, req CompileRequest) (*CompileResult, error) {
	return serve(ctx, s, syncJob[*CompileResult]{
		kind: "compile", spec: req.Spec, requests: s.met.reqCompile,
		check: func() error {
			if req.Source == "" {
				return badRequestf("missing source")
			}
			return nil
		},
		key: func(b *keyBuilder) { b.str(req.Source) },
		run: func(c pipeline.Config) (*CompileResult, error) {
			start := time.Now() // det:allow nodeterminism — latency/queue telemetry
			prog, err := mcc.Compile(req.Source)
			if err != nil {
				return nil, badRequestf("%v", err)
			}
			inputRTLs := prog.NumRTLs()
			optStart := time.Now() // det:allow nodeterminism — latency/queue telemetry
			st := pipeline.Optimize(prog, c)
			s.met.observeThroughput(inputRTLs, time.Since(optStart)) // det:allow nodeterminism — latency/queue telemetry
			s.met.observeVerify(st.Verify)
			var buf bytes.Buffer
			if err := asm.Emit(&buf, prog, c.Machine); err != nil {
				return nil, err
			}
			return &CompileResult{
				Machine: c.Machine.Name, Level: c.Level.String(),
				Assembly: buf.String(), Static: st,
				CodeBytes: vm.NewLayout(prog, c.Machine).CodeBytes,
				Served:    Served{ElapsedNS: int64(time.Since(start))}, // det:allow nodeterminism — latency/queue telemetry
			}, nil
		},
	})
}

// lookupCache checks the result cache for one sync request, recording
// the outcome as a span on the job's trace and in the labeled cache
// counters (the unlabeled hit/miss totals come from the cache itself).
func (s *Service) lookupCache(key Key, meta jobMeta) (any, bool) {
	start := time.Now() // det:allow nodeterminism — latency/queue telemetry
	v, ok := s.cache.Get(key)
	outcome := "miss"
	if ok {
		outcome = "hit"
	}
	s.met.cacheReq.WithLabelValues(meta.kind, outcome).Inc()
	if meta.tracer != nil {
		meta.tracer.Emit(&obs.Event{
			Type: obs.EvPhase, Name: "cache-lookup", Outcome: outcome,
			TimeNS: start.UnixNano(), DurNS: int64(time.Since(start)), // det:allow nodeterminism — latency/queue telemetry
		})
	}
	return v, ok
}

// MeasureRequest is the body of POST /measure: either a Table-3 program
// name or inline source.
type MeasureRequest struct {
	// Program names a Table-3 entry ("wc", "queens", ...); its canned
	// input is used unless Input is set.
	Program string `json:"program,omitempty"`
	// Source is an inline mini-C translation unit (alternative to
	// Program).
	Source string `json:"source,omitempty"`
	// Input overrides the program's standard input.
	Input *string `json:"input,omitempty"`
	Spec
	// Caches enables the Table-6 cache bank.
	Caches bool `json:"caches,omitempty"`
	// IncludeOutput echoes the program's output in the response.
	IncludeOutput bool `json:"output,omitempty"`
}

// MeasureResult is the body of a successful POST /measure response.
type MeasureResult struct {
	Name    string `json:"name"`
	Machine string `json:"machine"`
	Level   string `json:"level"`
	// Static and Dynamic are the EASE measurements behind Tables 4 and 5.
	Static    pipeline.Stats `json:"static"`
	Dynamic   vm.Counts      `json:"dynamic"`
	CodeBytes int64          `json:"code_bytes"`
	ExitCode  int64          `json:"exit_code"`
	// Derived Table-4/§5.2 ratios.
	StaticJumpPct        float64 `json:"static_jump_pct"`
	DynamicJumpPct       float64 `json:"dynamic_jump_pct"`
	InstsBetweenBranches float64 `json:"insts_between_branches"`
	// Caches holds the Table-6 bank statistics when requested.
	Caches []icache.Stats `json:"caches,omitempty"`
	// Output is the program's output (when requested).
	Output string `json:"output,omitempty"`
	Served
}

// Measure compiles, runs and measures req through the worker pool,
// serving repeats from the cache.
func (s *Service) Measure(ctx context.Context, req MeasureRequest) (*MeasureResult, error) {
	name, source, input := req.Program, req.Source, ""
	return serve(ctx, s, syncJob[*MeasureResult]{
		kind: "measure", spec: req.Spec, requests: s.met.reqMeasure,
		check: func() error {
			switch {
			case req.Program != "" && req.Source != "":
				return badRequestf("give program or source, not both")
			case req.Program != "":
				p := bench.ProgramByName(req.Program)
				if p == nil {
					return badRequestf("unknown program %q (see GET /programs)", req.Program)
				}
				source, input = p.Source, p.Input
			case req.Source != "":
				name = "inline"
			default:
				return badRequestf("missing program or source")
			}
			if req.Input != nil {
				input = *req.Input
			}
			return nil
		},
		key: func(b *keyBuilder) {
			b.str(source)
			b.str(input)
			b.bool(req.Caches)
			b.bool(req.IncludeOutput)
		},
		run: func(c pipeline.Config) (*MeasureResult, error) {
			run, err := ease.Measure(ease.Request{
				Name: name, Source: source, Input: []byte(input),
				Machine: c.Machine, Level: c.Level, Spec: c.Spec,
				SimulateCaches: req.Caches,
				Tracer:         c.Tracer,
			})
			if err != nil {
				return nil, badRequestf("%v", err)
			}
			s.met.observeThroughput(run.InputRTLs, run.OptimizeElapsed)
			s.met.observeVerify(run.Static.Verify)
			out := &MeasureResult{
				Name: name, Machine: c.Machine.Name, Level: c.Level.String(),
				Static: run.Static, Dynamic: run.Dynamic,
				CodeBytes: run.CodeBytes, ExitCode: run.ExitCode,
				StaticJumpPct:        100 * run.StaticJumpFraction(),
				DynamicJumpPct:       100 * run.DynamicJumpFraction(),
				InstsBetweenBranches: run.InstsBetweenBranches(),
				Caches:               run.Caches,
				Served:               Served{ElapsedNS: int64(run.Elapsed)},
			}
			if req.IncludeOutput {
				out.Output = string(run.Output)
			}
			return out, nil
		},
	})
}

// jobMeta labels one synchronous job for the latency/queue-wait metric
// families and carries its trace sink.
type jobMeta struct {
	kind, level, machine string
	tracer               obs.Tracer
}

// runSync routes one job through the worker pool and waits for it: the
// per-job timeout and the caller's cancellation both apply, queue
// overflow surfaces as ErrQueueFull (HTTP 503), and a panicking job
// comes back as an error instead of killing a worker. The time between
// submission and a worker picking the task up is recorded as the job's
// queue-wait span and fed to the labeled queue-wait histogram.
func (s *Service) runSync(ctx context.Context, meta jobMeta, fn func(context.Context) (any, error)) (any, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.jobTimeout())
	defer cancel()
	type outcome struct {
		v   any
		err error
	}
	ch := make(chan outcome, 1)
	start := time.Now() // det:allow nodeterminism — latency/queue telemetry
	err := s.pool.TrySubmit(ctx, func(ctx context.Context) {
		wait := time.Since(start) // det:allow nodeterminism — latency/queue telemetry
		s.met.queueWait.WithLabelValues(meta.kind, meta.level, meta.machine).Observe(wait.Seconds())
		if meta.tracer != nil {
			meta.tracer.Emit(&obs.Event{
				Type: obs.EvPhase, Name: "queue-wait",
				TimeNS: start.UnixNano(), DurNS: int64(wait),
			})
		}
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{nil, fmt.Errorf("service: job panicked: %v", r)}
			}
		}()
		if err := ctx.Err(); err != nil {
			ch <- outcome{nil, err}
			return
		}
		v, err := fn(ctx)
		ch <- outcome{v, err}
	})
	if err != nil {
		return nil, err
	}
	select {
	case o := <-ch:
		elapsed := time.Since(start).Seconds() // det:allow nodeterminism — latency/queue telemetry
		s.met.latency.Observe(elapsed)
		s.met.jobDur.WithLabelValues(meta.kind, meta.level, meta.machine).Observe(elapsed)
		return o.v, o.err
	case <-ctx.Done():
		// The job may still run to completion on its worker; only the
		// waiter gives up.
		return nil, ctx.Err()
	}
}

// GridRequest is the body of POST /grid: an asynchronous batch over a
// program list.
type GridRequest struct {
	// Programs are Table-3 names (empty = the full set).
	Programs []string `json:"programs,omitempty"`
	// Caches enables the Table-6 cache bank.
	Caches bool `json:"caches,omitempty"`
	// CacheSizes overrides the paper's {1,2,4,8} KB bank (bytes).
	CacheSizes []int64 `json:"cache_sizes,omitempty"`
	CompileOptions
	// Tables includes the rendered Tables 3–6 text in the job result.
	Tables bool `json:"tables,omitempty"`
}

// GridCell is one grid cell summary in a job result.
type GridCell struct {
	Program   string         `json:"program"`
	Machine   string         `json:"machine"`
	Level     string         `json:"level"`
	Static    pipeline.Stats `json:"static"`
	Dynamic   vm.Counts      `json:"dynamic"`
	CodeBytes int64          `json:"code_bytes"`
	Caches    []icache.Stats `json:"caches,omitempty"`
}

// GridResult is the result payload of a finished grid job.
type GridResult struct {
	Cells []GridCell `json:"cells"`
	// Tables is the rendered Tables 3–6 text (when requested).
	Tables string `json:"tables,omitempty"`
}

// Limits on a grid's cache_sizes beyond what the cache bank can build (a
// power of two of at least one line, cache.CheckGeometry): no Table-6
// study needs a cache over 1 MiB or more than eight sizes.
const (
	maxCacheBytes = 1 << 20
	maxCacheSizes = 8
)

// checkCacheSizes rejects cache sizes the bank cannot build or that would
// allocate more than any Table-6 study needs.
func checkCacheSizes(sizes []int64) error {
	if len(sizes) > maxCacheSizes {
		return malformedf("cache_sizes: %d sizes, at most %d", len(sizes), maxCacheSizes)
	}
	for _, sz := range sizes {
		if sz > maxCacheBytes {
			return malformedf("cache_sizes: %d bytes, at most %d", sz, maxCacheBytes)
		}
		if err := icache.CheckGeometry(sz, icache.DefaultLineBytes); err != nil {
			return malformedf("cache_sizes: %v", err)
		}
	}
	return nil
}

// SubmitGrid validates req, registers an async job, and starts a
// coordinator goroutine that fans the grid cells out over the worker
// pool. The returned snapshot carries the job ID for GET /jobs/{id}.
func (s *Service) SubmitGrid(req GridRequest) (JobView, error) {
	if err := s.checkOpen(); err != nil {
		return JobView{}, err
	}
	spec, err := req.CompileOptions.resolve()
	if err != nil {
		return JobView{}, err
	}
	if err := checkCacheSizes(req.CacheSizes); err != nil {
		return JobView{}, err
	}
	progs := bench.Programs()
	if len(req.Programs) > 0 {
		chosen := make([]bench.Program, 0, len(req.Programs))
		for _, name := range req.Programs {
			p := bench.ProgramByName(name)
			if p == nil {
				return JobView{}, badRequestf("unknown program %q", name)
			}
			chosen = append(chosen, *p)
		}
		progs = chosen
	}
	s.met.reqGrid.Inc()

	job := newJob("grid", len(progs)*len(machine.All())*len(pipeline.AllLevels()))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobView{}, ErrClosed
	}
	s.jobs[job.ID()] = job
	s.grids.Add(1)
	s.mu.Unlock()
	tr := s.jobTracer(job.ID())

	go func() {
		defer s.grids.Done()
		ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.gridTimeout())
		defer cancel()
		job.start()
		start := time.Now() // det:allow nodeterminism — latency/queue telemetry
		res, err := bench.RunGrid(ctx, bench.GridConfig{
			Programs:   progs,
			Caches:     req.Caches,
			CacheSizes: req.CacheSizes,
			Spec:       spec,
			Pool:       s.pool,
			Tracer:     tr,
			OnCell: func(c *bench.Cell) {
				job.step()
				s.met.gridCells.Inc()
				s.met.latency.Observe(c.Run.Elapsed.Seconds())
				s.met.jobDur.WithLabelValues("grid", c.Level.String(), c.Machine).
					Observe(c.Run.Elapsed.Seconds())
				s.met.queueWait.WithLabelValues("grid", c.Level.String(), c.Machine).
					Observe(c.QueueWait.Seconds())
			},
		})
		if err != nil {
			s.met.errors.Inc()
			s.finishJob(job, nil, err)
			s.logf("grid job %s failed after %s: %v", job.ID(), time.Since(start).Round(time.Millisecond), err) // det:allow nodeterminism — latency/queue telemetry
			return
		}
		out := &GridResult{Cells: make([]GridCell, 0, len(res.Cells))}
		for _, c := range res.Cells {
			out.Cells = append(out.Cells, GridCell{
				Program: c.Program, Machine: c.Machine, Level: c.Level.String(),
				Static: c.Run.Static, Dynamic: c.Run.Dynamic,
				CodeBytes: c.Run.CodeBytes, Caches: c.Run.Caches,
			})
		}
		if req.Tables {
			var buf bytes.Buffer
			res.WriteAll(&buf, req.Caches)
			out.Tables = buf.String()
		}
		s.finishJob(job, out, nil)
		s.logf("grid job %s: %d cells in %s", job.ID(), len(res.Cells), time.Since(start).Round(time.Millisecond)) // det:allow nodeterminism — latency/queue telemetry
	}()
	return job.View(), nil
}

// Job returns a snapshot of the identified job.
func (s *Service) Job(id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, ErrNotFound
	}
	return j.View(), nil
}

// Jobs returns snapshots of every known job, ordered by ID so the same
// job set always serializes the same way.
func (s *Service) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.View())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
