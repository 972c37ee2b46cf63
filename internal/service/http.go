package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/bench"
	"repro/internal/obs"
)

// Handler returns the daemon's HTTP API:
//
//	POST /compile          mini-C source -> assembly + static/replication counters
//	POST /measure          program or source -> EASE jump/instruction/cache metrics
//	POST /grid             async batch over a program list -> job ID
//	GET  /jobs/{id}        job status and result
//	GET  /jobs/{id}/trace  the job's span tree as Chrome trace_event JSON
//	GET  /jobs/{id}/events the job's raw telemetry events as JSONL
//	GET  /jobs             all jobs
//	GET  /programs         the Table-3 program list
//	GET  /healthz          liveness + pool stats + build version
//	GET  /metrics          Prometheus text exposition
//	GET  /debug/pprof/     the standard Go profiling endpoints
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.handleCompile)
	mux.HandleFunc("POST /measure", s.handleMeasure)
	mux.HandleFunc("POST /grid", s.handleGrid)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /programs", s.handlePrograms)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// errorBody is the JSON envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // nothing to do about a broken client connection
}

// writeError maps service errors to HTTP statuses: a malformed field ->
// 400, other validation -> 422, overload -> 503 (with Retry-After),
// timeout -> 504, unknown -> 500.
func writeError(w http.ResponseWriter, err error) {
	var bad *badRequestError
	switch {
	case errors.As(err, &bad):
		status := http.StatusUnprocessableEntity
		if bad.malformed {
			status = http.StatusBadRequest
		}
		writeJSON(w, status, errorBody{err.Error()})
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
	case errors.Is(err, ErrClosed), errors.Is(err, ErrPoolClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
	case errors.Is(err, ErrNotFound):
		writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusGatewayTimeout, errorBody{err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
	}
}

// maxBodyBytes bounds a request body. The largest legitimate sources are
// far below it: a Table-3 program is at most 3,418 bytes and the 300-state
// stress program (difftest.GenerateStress) 36,754.
const maxBodyBytes = 1 << 20

// decodeBody parses a JSON request body strictly: unknown fields are an
// error, so typos in field names fail loudly, and only whitespace may
// follow the value. A body longer than maxBodyBytes is refused with 413,
// wherever its excess sits.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// Read the rest through the limit even after junk, so that an
		// oversized body stays a 413.
		var rest trailer
		_, err = io.Copy(&rest, io.MultiReader(dec.Buffered(), body))
		if err == nil && rest.data {
			err = errors.New("data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{"request body exceeds " + strconv.FormatInt(tooBig.Limit, 10) + " bytes"})
		return false
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{"bad request body: " + err.Error()})
		return false
	}
	return true
}

// trailer is the writer decodeBody drains a body's remainder into: it
// records whether anything but JSON whitespace came after the value.
type trailer struct{ data bool }

func (t *trailer) Write(p []byte) (int, error) {
	t.data = t.data || len(bytes.TrimLeft(p, " \t\r\n")) > 0
	return len(p), nil
}

func (s *Service) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.Compile(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("X-Mccd-Job", res.JobID)
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var req MeasureRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.Measure(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("X-Mccd-Job", res.JobID)
	writeJSON(w, http.StatusOK, res)
}

func (s *Service) handleGrid(w http.ResponseWriter, r *http.Request) {
	var req GridRequest
	if !decodeBody(w, r, &req) {
		return
	}
	view, err := s.SubmitGrid(req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+view.ID)
	w.Header().Set("X-Mccd-Job", view.ID)
	writeJSON(w, http.StatusAccepted, view)
}

// handleJobTrace renders the job's retained trace as a Chrome trace_event
// JSON array, loadable in about://tracing or Perfetto.
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	evs, err := s.JobEvents(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	cw := obs.NewChromeWriter(w)
	for _, ev := range evs {
		cw.Emit(ev)
	}
	cw.Close() // nothing to do about a broken client connection
}

// handleJobEvents streams the job's retained trace as JSONL, one raw
// telemetry event per line.
func (s *Service) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	evs, err := s.JobEvents(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	jw := obs.NewJSONLWriter(w)
	for _, ev := range evs {
		jw.Emit(ev)
	}
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	view, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

// programInfo is one GET /programs entry.
type programInfo struct {
	Name        string `json:"name"`
	Class       string `json:"class"`
	Description string `json:"description"`
}

func (s *Service) handlePrograms(w http.ResponseWriter, r *http.Request) {
	ps := bench.Programs()
	out := make([]programInfo, 0, len(ps))
	for _, p := range ps {
		out = append(out, programInfo{p.Name, p.Class, p.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

// health is the GET /healthz body.
type health struct {
	Status      string `json:"status"`
	Version     string `json:"version"`
	Workers     int    `json:"workers"`
	Busy        int64  `json:"busy"`
	QueueDepth  int    `json:"queue_depth"`
	QueueCap    int    `json:"queue_cap"`
	JobsRunning int64  `json:"jobs_running"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, health{
		Status:      "ok",
		Version:     s.version,
		Workers:     s.pool.Workers(),
		Busy:        s.pool.Busy(),
		QueueDepth:  s.pool.QueueDepth(),
		QueueCap:    s.pool.QueueCap(),
		JobsRunning: s.jobsRunning(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WriteProm(w)
}
