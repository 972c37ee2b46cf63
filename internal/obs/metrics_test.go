package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.GaugeVec("g", "a gauge", []string{"k"}).WithLabelValues("x")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Set(5)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 5 {
		t.Fatalf("count = %d, want 5", snap.Count)
	}
	if got := snap.Sum; got != 56.05 {
		t.Fatalf("sum = %v, want 56.05", got)
	}
	// Bucket occupancy: (<=0.1)=1, (<=1)=2, (<=10)=1, +Inf=1.
	want := []int64{1, 2, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	// Boundary value lands in its bucket (le is inclusive).
	h.Observe(0.1)
	if got := h.counts[0].Load(); got != 2 {
		t.Fatalf("le=0.1 bucket after boundary observe = %d, want 2", got)
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Add(3)
	r.GaugeFunc("depth", "queue depth", func() int64 { return 9 })
	h := r.Histogram("lat_seconds", "latency", []float64{0.5, 2})
	h.Observe(0.1)
	h.Observe(1)
	var sb strings.Builder
	r.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		"reqs_total 3",
		"# HELP depth queue depth",
		"depth 9",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.5"} 1`,
		`lat_seconds_bucket{le="2"} 2`,
		`lat_seconds_bucket{le="+Inf"} 2`,
		"lat_seconds_sum 1.1",
		"lat_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("x", "", func() int64 { return 0 })
}

// TestMetricsConcurrent is meaningful under -race: all metric types must
// take concurrent updates.
func TestMetricsConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.GaugeVec("g", "", []string{"k"}).WithLabelValues("x")
	h := r.Histogram("h", "", []float64{1, 2, 4})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(int64(j))
				h.Observe(float64(j % 6))
			}
		}()
	}
	var render sync.WaitGroup
	render.Add(1)
	go func() {
		defer render.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			r.WriteProm(&sb)
		}
	}()
	wg.Wait()
	render.Wait()
	// Every goroutine's last Set is 999, so the last write overall is too.
	if n := h.Snapshot().Count; c.Value() != 8000 || g.Value() != 999 || n != 8000 {
		t.Fatalf("lost updates: c=%d g=%d h=%d", c.Value(), g.Value(), n)
	}
}

// TestHistogramSnapshotConsistent is the torn-read regression test: under
// concurrent observation of a fixed value, every snapshot must be
// internally consistent — buckets summing exactly to count, and sum equal
// to count times the observed value. Before the seqlock, a scrape could
// see count updated but sum (or a bucket) not yet.
func TestHistogramSnapshotConsistent(t *testing.T) {
	h := NewHistogram([]float64{0.5, 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(1)
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		var cum int64
		for _, c := range s.Counts {
			cum += c
		}
		if cum != s.Count {
			t.Fatalf("torn snapshot: buckets sum to %d, count %d", cum, s.Count)
		}
		if s.Sum != float64(s.Count) {
			t.Fatalf("torn snapshot: sum %v with count %d (observing 1.0)", s.Sum, s.Count)
		}
	}
	close(stop)
	wg.Wait()
}
