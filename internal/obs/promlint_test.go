package obs

import (
	"strings"
	"testing"
)

func lintString(s string) []error { return LintExposition(strings.NewReader(s)) }

func TestLintCleanExposition(t *testing.T) {
	clean := `# HELP req_total requests
# TYPE req_total counter
req_total{kind="compile"} 4
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{kind="x",le="0.5"} 1
lat_seconds_bucket{kind="x",le="2"} 3
lat_seconds_bucket{kind="x",le="+Inf"} 4
lat_seconds_sum{kind="x"} 2.5
lat_seconds_count{kind="x"} 4
# TYPE up gauge
up 1
`
	if errs := lintString(clean); len(errs) != 0 {
		t.Fatalf("clean exposition flagged: %v", errs)
	}
}

func TestLintRegistryOutputIsClean(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Inc()
	r.GaugeFunc("g", "g", func() int64 { return 2 })
	r.Histogram("h", "h", []float64{0.1, 1}).Observe(0.5)
	r.CounterVec("cv_total", "cv", []string{"k"}).WithLabelValues("x").Inc()
	r.HistogramVec("hv", "hv", []string{"k"}, nil).WithLabelValues("x").Observe(0.2)
	var sb strings.Builder
	r.WriteProm(&sb)
	if errs := LintExposition(strings.NewReader(sb.String())); len(errs) != 0 {
		t.Fatalf("registry exposition fails lint: %v\n%s", errs, sb.String())
	}
}

func TestLintViolations(t *testing.T) {
	for _, tc := range []struct {
		name string
		expo string
		want string // substring expected in some error
	}{
		{"counter without _total",
			"# TYPE bad counter\nbad 1\n", "does not end in _total"},
		{"sample without TYPE",
			"orphan 1\n", "without a preceding TYPE"},
		{"duplicate TYPE",
			"# TYPE a_total counter\n# TYPE a_total counter\na_total 1\n", "duplicate TYPE"},
		{"duplicate HELP",
			"# HELP x one\n# HELP x two\n# TYPE x gauge\nx 1\n", "duplicate HELP"},
		{"HELP after TYPE",
			"# TYPE x gauge\n# HELP x late\nx 1\n", "after its TYPE"},
		{"TYPE after samples",
			"# TYPE x gauge\nx 1\n# TYPE y gauge\ny 1\n# HELP x late\n", "after its samples"},
		{"unknown type",
			"# TYPE x widget\nx 1\n", "unknown metric type"},
		{"HELP without TYPE",
			"# HELP x lonely\n", "HELP without a TYPE"},
		{"non-float le",
			"# TYPE h histogram\nh_bucket{le=\"wide\"} 1\n", "is not a float"},
		{"bucket without le",
			"# TYPE h histogram\nh_bucket{kind=\"x\"} 1\n", "without an le label"},
		{"le out of order",
			"# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\n",
			"out of order"},
		{"non-cumulative buckets",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n",
			"not cumulative"},
		{"missing +Inf",
			"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "missing le=\"+Inf\""},
		{"count mismatch",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\n", "_count 4 != +Inf bucket 3"},
		{"bad value",
			"# TYPE x gauge\nx notanumber\n", "bad value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := lintString(tc.expo)
			if len(errs) == 0 {
				t.Fatalf("lint accepted bad exposition:\n%s", tc.expo)
			}
			for _, err := range errs {
				if strings.Contains(err.Error(), tc.want) {
					return
				}
			}
			t.Fatalf("no error containing %q, got: %v", tc.want, errs)
		})
	}
}

func TestLintLabelSetsIndependent(t *testing.T) {
	// Two label sets interleaved: each must be checked on its own.
	expo := `# TYPE h histogram
h_bucket{k="a",le="1"} 1
h_bucket{k="b",le="1"} 9
h_bucket{k="a",le="+Inf"} 2
h_bucket{k="b",le="+Inf"} 9
h_count{k="a"} 2
h_count{k="b"} 9
`
	if errs := lintString(expo); len(errs) != 0 {
		t.Fatalf("interleaved label sets flagged: %v", errs)
	}
}
