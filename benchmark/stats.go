package main

import (
	"math"
	"sort"
	"time"
)

// sample is one completed operation of a timed phase.
type sample struct {
	end time.Duration // completion time, as an offset from the phase start
	lat time.Duration
	ok  bool
}

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks; NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// goodQuartile is the quartile of xs on its good side: the first when
// lower is better, the third when higher is.
func goodQuartile(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return percentile(xs, 0.75)
	}
	return percentile(xs, 0.25)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// latenciesMS extracts the latencies of the successful samples.
func latenciesMS(ss []sample) []float64 {
	out := make([]float64, 0, len(ss))
	for _, s := range ss {
		if s.ok {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

// windowStats is what one saturation window of length d reports: the
// completion rate (ops/s) and the p90 latency (ms) of the operations
// that completed, successfully, inside it. The stragglers a closed loop
// finishes after the bell count towards neither.
func windowStats(ss []sample, d time.Duration) (opsPerSec, p90MS float64) {
	var lats []float64
	for _, s := range ss {
		if s.ok && s.end < d {
			lats = append(lats, ms(s.lat))
		}
	}
	return float64(len(lats)) / d.Seconds(), percentile(lats, 0.9)
}
