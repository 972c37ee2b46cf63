package obs

import "sync"

// FlightRecorder is an always-on, bounded ring-buffer sink: it retains
// the last N events emitted anywhere in the process, each stamped with a
// monotone sequence number, and indexes them by job ID so the debug plane
// can answer "what did job X just do?" without per-job sinks. Older
// events fall off the ring; the per-job index is pruned in step, so
// memory stays O(N) regardless of uptime.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []*RecordedEvent // ring, position = seq % len(buf)
	next  uint64           // sequence number of the next event
	byJob map[string][]uint64
}

// RecordedEvent is one flight-recorder entry: the event plus its global
// sequence number (the JSONL key of GET /debug/events).
type RecordedEvent struct {
	Seq uint64 `json:"seq"`
	*Event
}

// DefaultFlightRecorderSize is the ring capacity used when none is given.
const DefaultFlightRecorderSize = 4096

// NewFlightRecorder returns a recorder retaining the last size events
// (<= 0 = DefaultFlightRecorderSize).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightRecorderSize
	}
	return &FlightRecorder{
		buf:   make([]*RecordedEvent, size),
		byJob: map[string][]uint64{},
	}
}

// Emit implements Tracer. The event is retained as-is (events are
// immutable once emitted, per the Tracer contract).
func (r *FlightRecorder) Emit(ev *Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	pos := r.next % uint64(len(r.buf))
	if old := r.buf[pos]; old != nil && old.Job != "" {
		// The evicted event is the globally oldest one, so within its
		// job's (ascending) index it is necessarily the head entry.
		seqs := r.byJob[old.Job]
		if len(seqs) > 0 && seqs[0] == old.Seq {
			seqs = seqs[1:]
			if len(seqs) == 0 {
				delete(r.byJob, old.Job)
			} else {
				r.byJob[old.Job] = seqs
			}
		}
	}
	rec := &RecordedEvent{Seq: r.next, Event: ev}
	r.buf[pos] = rec
	if ev.Job != "" {
		r.byJob[ev.Job] = append(r.byJob[ev.Job], r.next)
	}
	r.next++
}

// Total is the number of events ever emitted (retained or not).
func (r *FlightRecorder) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Tail returns up to n most recent events in emission order, filtered to
// one job when job is non-empty (n <= 0 = everything retained).
func (r *FlightRecorder) Tail(n int, job string) []*RecordedEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	if job != "" {
		seqs := r.byJob[job]
		if n > 0 && len(seqs) > n {
			seqs = seqs[len(seqs)-n:]
		}
		out := make([]*RecordedEvent, 0, len(seqs))
		for _, seq := range seqs {
			out = append(out, r.buf[seq%uint64(len(r.buf))])
		}
		return out
	}
	retained := uint64(len(r.buf))
	if r.next < retained {
		retained = r.next
	}
	if n > 0 && uint64(n) < retained {
		retained = uint64(n)
	}
	out := make([]*RecordedEvent, 0, retained)
	for seq := r.next - retained; seq < r.next; seq++ {
		out = append(out, r.buf[seq%uint64(len(r.buf))])
	}
	return out
}
