// Package obs is the compiler's zero-dependency telemetry layer: a small
// structured-event model (pass spans, replication decisions, VM execution
// profiles) with pluggable sinks — an in-memory collector, a JSONL stream
// writer, and a Chrome trace_event writer for about://tracing.
//
// The disabled state is a nil Tracer: instrumented code guards every event
// construction with a single nil check, so hot paths pay nothing when
// telemetry is off.
package obs

// Event types. Every event carries Type plus the subset of fields its type
// defines; unused fields are omitted from serialized forms.
const (
	// EvPhase is a coarse span around one compilation stage of a
	// measurement: "compile", "optimize", "layout", "run".
	EvPhase = "phase"
	// EvPass is one optimization pass applied to one function: name,
	// pipeline stage and iteration, changed flag, RTL/block deltas, timing.
	EvPass = "pass"
	// EvDecision is one unconditional jump considered for replication: the
	// candidate sequences with their RTL costs, the heuristic in force,
	// which candidates were rolled back by the reducibility check, and the
	// outcome.
	EvDecision = "decision"
	// EvBlock is a per-block dynamic execution count from the VM profile.
	EvBlock = "block"
	// EvHot is one entry of the hot-path summary: a top block by executed
	// instructions, with its share of the total.
	EvHot = "hot"
	// EvVerify is one semantic-verifier violation found by verify-each mode
	// (internal/verify via pipeline.Config.VerifyEach): the offending pass
	// in Name (with Stage/Iter placing it in the Figure-3 pipeline), the
	// function and block, the rule id in Rule, and a one-line explanation
	// in Detail.
	EvVerify = "verify"
)

// Decision outcomes.
const (
	// OutApplied: a candidate sequence was spliced in for the jump.
	OutApplied = "applied"
	// OutDeleted: the jump targeted the positionally next block and was
	// simply deleted.
	OutDeleted = "deleted"
	// OutNoCandidates: no replication sequence exists (e.g. a jump into an
	// infinite loop); the jump is kept.
	OutNoCandidates = "no-candidates"
	// OutRolledBack: every candidate was undone by the reducibility check;
	// the jump is kept and blacklisted for this invocation.
	OutRolledBack = "rolled-back"
)

// Candidate kinds.
const (
	// KindReturns: a sequence ending in a return (or, with the §6
	// extension, an indirect jump) — the paper's "favoring returns".
	KindReturns = "returns"
	// KindLoops: a sequence reconnecting to the block after the jump —
	// the paper's "favoring loops".
	KindLoops = "loops"
	// KindRotation: the conventional LOOPS-level loop-condition rotation
	// (a reversed copy of a pure termination test).
	KindRotation = "rotation"
	// KindFold: the DUPS-level conditional elimination — a test block
	// duplicated onto an incoming edge with its branch folded to the
	// decided transfer.
	KindFold = "fold"
)

// Candidate describes one replication sequence considered for a jump.
type Candidate struct {
	Kind string `json:"kind"`
	// RTLs is the sequence's replication cost in copied RTLs; Blocks the
	// number of blocks it copies.
	RTLs   int `json:"rtls"`
	Blocks int `json:"blocks"`
	// LoopCompleted marks a step-3 variant: a natural loop on the path was
	// pulled in whole to keep the graph reducible.
	LoopCompleted bool `json:"loop_completed,omitempty"`
	// RolledBack marks a candidate that was spliced and then undone because
	// the result was irreducible (step 6).
	RolledBack bool `json:"rolled_back,omitempty"`
	// Applied marks the candidate that was kept.
	Applied bool `json:"applied,omitempty"`
}

// Event is one telemetry event. The Type constants above document which
// fields each event kind populates.
type Event struct {
	Type string `json:"type"`
	// Job is the service job the event belongs to (stamped by WithJob;
	// empty for CLI traces).
	Job string `json:"job,omitempty"`
	// Name is the span name: the pass name for EvPass, the stage name for
	// EvPhase.
	Name string `json:"name,omitempty"`
	// Func is the function the event concerns.
	Func string `json:"func,omitempty"`

	// Stage and Iter place an EvPass event in the Figure-3 pipeline:
	// "prologue" (before the do-while loop), "loop" with Iter >= 1, or
	// "finish" (register allocation and final cleanups).
	Stage string `json:"stage,omitempty"`
	Iter  int    `json:"iter,omitempty"`
	// Changed reports whether the pass modified the function.
	Changed bool `json:"changed,omitempty"`
	// RTL and block counts around a pass (or phase).
	RTLsBefore   int `json:"rtls_before,omitempty"`
	RTLsAfter    int `json:"rtls_after,omitempty"`
	BlocksBefore int `json:"blocks_before,omitempty"`
	BlocksAfter  int `json:"blocks_after,omitempty"`

	// EvDecision: the jump considered (Block's terminator targeting
	// Target), the heuristic in force, the candidates in attempt order,
	// and the outcome.
	Block      string      `json:"block,omitempty"`
	Target     string      `json:"target,omitempty"`
	Heuristic  string      `json:"heuristic,omitempty"`
	Candidates []Candidate `json:"candidates,omitempty"`
	Outcome    string      `json:"outcome,omitempty"`

	// Machine and Level name the grid cell an event belongs to (stamped
	// by the bench grid runner; empty for single-cell traces).
	Machine string `json:"machine,omitempty"`
	Level   string `json:"level,omitempty"`

	// EvVerify: the semantic-verifier rule that fired and its one-line
	// explanation (the pass lives in Name, the location in Func/Block).
	Rule   string `json:"rule,omitempty"`
	Detail string `json:"detail,omitempty"`

	// EvBlock / EvHot: dynamic execution counts. Count is the number of
	// times the block was entered, Insts the instructions it executed in
	// total, Percent Insts' share of the program's executed instructions.
	Count   int64   `json:"count,omitempty"`
	Insts   int64   `json:"insts,omitempty"`
	Percent float64 `json:"percent,omitempty"`

	// TimeNS is the event's wall-clock start (UnixNano); DurNS its
	// duration. Both are stripped by sinks configured for deterministic
	// output.
	TimeNS int64 `json:"t_ns,omitempty"`
	DurNS  int64 `json:"dur_ns,omitempty"`
}

// Tracer consumes telemetry events. Implementations must be safe for
// concurrent use; emitted events must not be mutated afterwards by either
// side. A nil Tracer means telemetry is disabled — instrumented code checks
// for nil before building an event.
type Tracer interface {
	Emit(ev *Event)
}

// Multi fans events out to every non-nil tracer. It returns nil when none
// remain (so the result still works as the "disabled" sentinel), the tracer
// itself when exactly one remains, and a fan-out otherwise.
func Multi(tracers ...Tracer) Tracer {
	var live []Tracer
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiTracer(live)
}

type multiTracer []Tracer

func (m multiTracer) Emit(ev *Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

// WithJob returns a tracer that stamps every event with the given job ID
// before forwarding to next (on a copy — emitted events are immutable by
// the Tracer contract). A nil next yields nil, preserving the disabled
// convention.
func WithJob(job string, next Tracer) Tracer {
	if next == nil {
		return nil
	}
	return jobTracer{job: job, next: next}
}

type jobTracer struct {
	job  string
	next Tracer
}

func (t jobTracer) Emit(ev *Event) {
	cp := *ev
	cp.Job = t.job
	t.next.Emit(&cp)
}
