package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call across a layer boundary. Spans of one op share
// Op; Parent is the ID of the span that made the call (0 for an op's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory, together with the counts
// taken at the same boundaries and the samples behind per-layer medians.
// It is safe for concurrent use (mccd-mix traces from two clients).
type tracer struct {
	mu sync.Mutex
	// t0 is the tracer's creation time in Unix nanoseconds. Every span
	// offset is a wall-clock difference from it, whether the span was
	// timed here or arrived as a telemetry event stamped with UnixNano,
	// so spans from both sources nest on one clock.
	t0      int64
	spans   []span
	counts  map[string]float64
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{
		t0:      time.Now().UnixNano(),
		counts:  map[string]float64{},
		samples: map[string][]float64{},
	}
}

// record adds a finished span and returns its ID.
func (t *tracer) record(name string, parent int, op int64, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.UnixNano() - t.t0,
		End:   end.UnixNano() - t.t0,
	})
	return id
}

// open starts a span whose end is set by close; children may name it as
// their parent in between.
func (t *tracer) open(name string, parent int, op int64) int {
	now := time.Now()
	return t.record(name, parent, op, now, now)
}

// close ends the span opened as id.
func (t *tracer) close(id int) {
	end := time.Now().UnixNano() - t.t0
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, op int64, fn func()) int {
	id := t.open(name, parent, op)
	fn()
	t.close(id)
	return id
}

// reparent moves span id under parent.
func (t *tracer) reparent(id, parent int) {
	t.mu.Lock()
	t.spans[id-1].Parent = parent
	t.mu.Unlock()
}

// add bumps a per-layer count.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// sample keeps one observation for a per-layer median.
func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// layerTimes sums, per span name, the inclusive duration of every span
// (busy) and its self time: the duration minus the part of its interval
// that its children cover (children may overlap, e.g. passes of functions
// optimized in parallel, so covered time is the union of their intervals).
func (t *tracer) layerTimes() (busy, self map[string]time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i := range t.spans {
		if p := t.spans[i].Parent; p > 0 {
			children[p] = append(children[p], i)
		}
	}
	busy, self = map[string]time.Duration{}, map[string]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		d := s.End - s.Start
		busy[s.Name] += time.Duration(d)
		self[s.Name] += time.Duration(d - t.covered(s, children[s.ID]))
	}
	return busy, self
}

// covered is the length of the union of the child intervals, clipped to
// the parent's interval.
func (t *tracer) covered(p *span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(t.spans[k].Start, p.Start), min(t.spans[k].End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeSpans writes every span as one JSON line to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// passTracer turns the pipeline's EvPass events into pass.<name> spans
// under one pipeline span. tv spans opened while a pass runs are moved
// under it when its event arrives (only the replicate pass emits
// certificates), so the pass's self time excludes validation.
type passTracer struct {
	t       *tracer
	parent  int
	op      int64
	pending []int // tv spans not yet placed under a pass
}

func (p *passTracer) Emit(ev *obs.Event) {
	if ev.Type != obs.EvPass {
		return
	}
	start := time.Unix(0, ev.TimeNS)
	id := p.t.record("pass."+ev.Name, p.parent, p.op, start, start.Add(time.Duration(ev.DurNS)))
	if len(p.pending) == 0 {
		return
	}
	s := p.t.spanAt(id)
	for _, tid := range p.pending {
		if ts := p.t.spanAt(tid); ts.Start >= s.Start && ts.End <= s.End {
			p.t.reparent(tid, id)
		}
	}
	p.pending = p.pending[:0]
}

func (t *tracer) spanAt(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// spansFile is where a traced run writes its spans, relative to the
// checkout root the benchmark runs in.
func spansFile(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
