package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file adds the service-facing half of the telemetry layer: cheap
// always-on counters, gauges and histograms collected into a Registry and
// rendered in the Prometheus text exposition format. Where the Tracer
// model (obs.go) records *what the compiler did* to one program, metrics
// record *what the process is doing* over time — request totals, cache
// hit ratios, queue depths, latency distributions.
//
// All metric types are safe for concurrent use and update via atomics, so
// hot paths pay one atomic add per observation.

// A Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// A Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// A Histogram counts observations into cumulative buckets with fixed
// upper bounds, plus a running sum and count — enough to render the
// Prometheus histogram form and derive mean latency.
//
// Writers serialize on a mutex and bracket their update with a sequence
// counter (a seqlock); Snapshot readers retry until they observe a quiet
// even sequence, so a scrape always sees sum, count and buckets from one
// consistent instant without ever blocking an Observe.
type Histogram struct {
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows

	mu     sync.Mutex    // serializes writers; readers never take it
	seq    atomic.Uint64 // odd while a write is in flight
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Int64
}

// DefaultLatencyBuckets suits compile/measure jobs: 1ms up to 60s.
var DefaultLatencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// ThroughputBuckets suits compile-throughput observations in RTLs/sec:
// roughly log-spaced from a pathological 100 RTLs/sec (the matrix engine
// on the stress function) up past the small-program regime where the
// per-compile fixed cost dominates (see BENCH_baseline.json).
var ThroughputBuckets = []float64{
	100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000, 1_000_000,
}

// NewHistogram builds a histogram with the given bucket upper bounds
// (sorted ascending; a +Inf bucket is implicit).
func NewHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.seq.Add(1) // odd: update in flight
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Store(math.Float64bits(math.Float64frombits(h.sum.Load()) + v))
	h.seq.Add(1) // even: consistent again
	h.mu.Unlock()
}

// HistogramSnapshot is one consistent observation of a histogram: the
// per-bucket counts (the +Inf bucket last), the sum and the count all
// belong to the same instant, so cumulating Counts always lands exactly
// on Count.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds (ascending; +Inf implicit).
	Bounds []float64
	// Counts are per-bucket observation counts, len(Bounds)+1 with the
	// +Inf bucket last. Not cumulative.
	Counts []int64
	// Sum and Count are the running sum and total observation count.
	Sum   float64
	Count int64
}

// Snapshot returns a consistent view of the histogram (see the type
// comment on Histogram for the seqlock protocol).
func (h *Histogram) Snapshot() HistogramSnapshot {
	counts := make([]int64, len(h.counts))
	for {
		s1 := h.seq.Load()
		if s1%2 != 0 {
			runtime.Gosched()
			continue
		}
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		sum := math.Float64frombits(h.sum.Load())
		count := h.count.Load()
		if h.seq.Load() == s1 {
			return HistogramSnapshot{Bounds: h.bounds, Counts: counts, Sum: sum, Count: count}
		}
	}
}

// metric is one registered entry; write renders it in exposition format.
type metric struct {
	name, help, typ string
	write           func(w io.Writer, name string)
}

// A Registry holds named metrics and renders them in registration order.
// Metric names must be unique; registering a duplicate panics (it is a
// programming error, like a duplicate flag).
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{names: map[string]bool{}} }

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.name] {
		panic("obs: duplicate metric " + m.name)
	}
	r.names[m.name] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(metric{name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, c.Value())
	}})
	return c
}

// CounterFunc registers a counter whose value is read from fn at render
// time (for counts maintained elsewhere, e.g. cache hits).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.register(metric{name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, fn())
	}})
}

// GaugeFunc registers a gauge whose value is read from fn at render time
// (for instantaneous values like queue depth).
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(metric{name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, fn())
	}})
}

// Histogram registers and returns a new histogram with the given bucket
// upper bounds (nil = DefaultLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	h := NewHistogram(bounds)
	r.register(metric{name, help, "histogram", func(w io.Writer, n string) {
		writeHistogram(w, n, "", h.Snapshot())
	}})
	return h
}

// writeHistogram renders one histogram snapshot in exposition format.
// labelPrefix is either empty or a rendered `k="v",...,` label list
// (trailing comma included) that precedes the le label.
func writeHistogram(w io.Writer, name, labelPrefix string, s HistogramSnapshot) {
	var cum int64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labelPrefix, formatFloat(b), cum)
	}
	cum += s.Counts[len(s.Bounds)]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labelPrefix, cum)
	if labelPrefix != "" {
		labelPrefix = "{" + strings.TrimSuffix(labelPrefix, ",") + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelPrefix, formatFloat(s.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelPrefix, s.Count)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm renders every metric in the Prometheus text exposition
// format, in registration order.
func (r *Registry) WriteProm(w io.Writer) {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	for _, m := range ms {
		if m.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
		m.write(w, m.name)
	}
}
