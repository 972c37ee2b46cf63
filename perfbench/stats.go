package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{99.9, 99.5, 99, 95, 90, 75, 50}

// tailPercentile is the highest percentile of tailLadder that leaves at
// least 10 samples of a pass of n ops beyond it, or 100 (the slowest op)
// when a pass is too short for any of them. Choosing it from the pass
// size, not from the samples a run happened to collect, keeps the metric
// the same quantity on every run of a workload.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 100
}

// cpuTime is the process's user+system CPU time so far. Unlike wall time
// it does not count time the host stole from the guest.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set so far, in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample holds the Go runtime counters behind the runtime.* and
// pipeline.allocs per-layer metrics.
type runtimeSample struct {
	gcCycles, gcCPU, allocBytes, mallocs float64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{gcCycles: v(0), gcCPU: v(1), allocBytes: v(2), mallocs: v(3)}
}
