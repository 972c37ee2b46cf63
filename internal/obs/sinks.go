package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Collector is an in-memory Tracer: the -explain renderer's input and
// each mccd job's trace.
type Collector struct {
	mu     sync.Mutex
	events []*Event
}

// Emit implements Tracer.
func (c *Collector) Emit(ev *Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns the collected events in emission order.
func (c *Collector) Events() []*Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Event(nil), c.events...)
}

// JSONLWriter streams events as JSON Lines: one event object per line, in
// emission order.
type JSONLWriter struct {
	// OmitTimings strips TimeNS/DurNS before encoding, making the stream
	// deterministic for a deterministic compilation (golden tests).
	OmitTimings bool

	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLWriter returns a JSONL sink writing to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{enc: json.NewEncoder(w)}
}

// Emit implements Tracer. Encoding errors are sticky and reported by Err.
func (j *JSONLWriter) Emit(ev *Event) {
	if j.OmitTimings && (ev.TimeNS != 0 || ev.DurNS != 0) {
		cp := *ev
		cp.TimeNS, cp.DurNS = 0, 0
		ev = &cp
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(ev)
}

// Err returns the first write error, if any.
func (j *JSONLWriter) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
