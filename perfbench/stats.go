package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, NaN when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tailQuantile is the latency percentile reported next to the median. It is
// the highest round percentile that keeps at least ten samples above it at
// the benchmark's run length on every workload (about 100 jobs in a 45 s run
// on a 2-CPU host leave about ten beyond p90, too few for a steady tail), so
// one name fits every workload.
const tailQuantile = 0.75
