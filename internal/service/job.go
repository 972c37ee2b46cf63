package service

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"repro/internal/obs"
)

// Job states. A job moves queued → running → done|failed; there are no
// other transitions.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// Job is one request's record in the job table: a synchronous /compile
// or /measure, or an asynchronous grid run. It owns the job's trace, so
// GET /jobs/{id}, /jobs/{id}/trace and /jobs/{id}/events read one record.
// The remaining fields are guarded by mu; handlers read consistent
// snapshots via View.
type Job struct {
	trace obs.Collector // every event of the job, stamped with its ID

	mu       sync.Mutex
	id       string
	kind     string
	state    string
	created  time.Time
	started  time.Time
	finished time.Time
	total    int // work units (grid cells) in the job
	done     int // work units completed so far
	err      string
	result   any
}

// JobView is the JSON shape of a job snapshot.
type JobView struct {
	ID       string     `json:"id"`
	Kind     string     `json:"kind"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Done/Total report progress in work units (grid cells).
	Done  int `json:"done"`
	Total int `json:"total"`
	// Error is set when State is "failed".
	Error string `json:"error,omitempty"`
	// Result is set when State is "done".
	Result any `json:"result,omitempty"`
}

// newJobID returns a random 16-hex-digit identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("service: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

func newJob(kind string, total int) *Job {
	return &Job{
		id: newJobID(), kind: kind, state: JobQueued,
		created: time.Now(), total: total, // det:allow nodeterminism — job lifecycle timestamps
	}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// tracer records into the job's trace, stamping each event with its ID.
func (j *Job) tracer() obs.Tracer { return obs.WithJob(j.id, &j.trace) }

func (j *Job) start() {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now() // det:allow nodeterminism — job lifecycle timestamps
	j.mu.Unlock()
}

// step records one completed work unit.
func (j *Job) step() {
	j.mu.Lock()
	j.done++
	j.mu.Unlock()
}

func (j *Job) finish(result any, err error) {
	j.mu.Lock()
	j.finished = time.Now() // det:allow nodeterminism — job lifecycle timestamps
	if err != nil {
		j.state = JobFailed
		j.err = err.Error()
	} else {
		j.state = JobDone
		j.result = result
	}
	j.mu.Unlock()
}

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// View returns a consistent snapshot for serialization.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID: j.id, Kind: j.kind, State: j.state, Created: j.created,
		Done: j.done, Total: j.total, Error: j.err, Result: j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}
