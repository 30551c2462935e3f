// Package obs is the engine's dependency-free telemetry layer: atomic
// counters, gauges read at scrape time, fixed-bucket lock-free latency
// histograms, a Registry that renders them in the Prometheus text
// exposition format (with quantile summaries derived from the
// buckets), and a lightweight per-request Trace carried through
// context.Context.
//
// Everything here is built for the hot path it observes. Counters are
// single atomics; histograms preallocate their bucket array at
// construction and record with one atomic add per observation plus a
// CAS loop for the running sum; tracing costs one pointer-sized context
// lookup plus a nil check when no trace is attached. Nothing in this
// package allocates after construction, takes a lock on the record
// path, or imports anything beyond the standard library.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative n is a programming error but is not checked on
// the hot path; exposition clamps at render time.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket lock-free histogram. Bucket bounds are
// inclusive upper bounds in ascending order; one implicit +Inf overflow
// bucket is appended. Observations cost one atomic add on the bucket
// counter, one on the total count, and a CAS loop on the float sum.
//
// Reads (Count, Sum, Quantile, snapshot for exposition) are not
// synchronized against concurrent writers beyond per-word atomicity: a
// scrape racing observations can see a sum slightly ahead of the bucket
// counts or vice versa. That tearing is bounded by in-flight
// observations and is the standard trade for a lock-free record path.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// NewHistogram builds a histogram over the given ascending finite
// upper bounds. It panics on empty, unsorted, or non-finite bounds —
// bucket layouts are declared at startup, not computed from data.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i, b := range own {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("obs: histogram bound %d is not finite", i))
		}
		if i > 0 && b <= own[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly ascending at %d", i))
		}
	}
	return &Histogram{
		bounds: own,
		counts: make([]atomic.Int64, len(own)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket arrays are small (tens of entries) and the
	// scan is branch-predictable; a binary search costs more in
	// mispredictions than it saves in comparisons at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the finite upper bounds (not including +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// snapshotCounts copies the per-bucket counts (including overflow).
func (h *Histogram) snapshotCounts(dst []int64) []int64 {
	if cap(dst) < len(h.counts) {
		dst = make([]int64, len(h.counts))
	}
	dst = dst[:len(h.counts)]
	for i := range h.counts {
		dst[i] = h.counts[i].Load()
	}
	return dst
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by
// linear interpolation inside the bucket containing the target rank.
// The lower edge of the first bucket is taken as 0 (the histograms in
// this repo hold non-negative latencies and counts); observations in
// the +Inf overflow bucket report the largest finite bound. Returns NaN
// when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			cum += n
			continue
		}
		if cum+n >= target {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (target - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// LatencyBuckets returns the standard latency layout used across the
// engine: exponential from 100µs to ~13s (factor 2, 18 buckets), in
// seconds. Wide enough for a paged-store miss storm, fine enough to
// separate the filter step from refinement.
func LatencyBuckets() []float64 {
	return ExpBuckets(1e-4, 2, 18)
}

// ExpBuckets returns n exponential upper bounds start, start*factor,
// start*factor^2, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic("obs: ExpBuckets needs start>0, factor>1, n>0")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// CountBuckets returns power-of-two upper bounds 1, 2, 4, ... covering
// at least max. Used for per-batch counts (re-evaluations, delta sizes,
// Monte-Carlo blocks).
func CountBuckets(max int) []float64 {
	if max < 1 {
		max = 1
	}
	var out []float64
	for v := 1; ; v *= 2 {
		out = append(out, float64(v))
		if v >= max {
			return out
		}
	}
}

// sortedLabelKey renders labels deterministically for dedup keys.
func sortedLabelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	s := ""
	for i, l := range ls {
		if i > 0 {
			s += ","
		}
		s += l.Name + "=" + l.Value
	}
	return s
}
