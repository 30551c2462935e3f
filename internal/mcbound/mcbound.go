// Package mcbound holds the Monte-Carlo machinery shared by every
// sampling refinement path in this repository: the early-termination
// decision rule (Decided), the one block-adaptive sampling driver the
// range-query refiners of internal/core run their draws through
// (Adaptive), the child-seed derivation that keys every sample
// stream (DeriveSeed), and the generator every stream is drawn from
// (Source: math/rand's generator, output for output, with a seeding
// four times cheaper). The shared-stream NN tally kernel (internal/nn)
// applies Decided from its own round loop — one stream retiring many
// candidates is a different algorithm from one candidate's private
// stream. Keeping the rule, the driver and the seed schedule here keeps
// the numerics identical across query kinds — an early stop means the
// same proof everywhere — without forcing internal/nn to import
// internal/core (core already imports nn).
package mcbound

import "math"

// Delta is δ, the per-check failure probability every query-path
// refiner passes to Decided.
const Delta = 1e-6

// Decided applies the early-termination bounds after n of total
// samples summing to sum (squares to sumSq; each sample lies in
// [0, 1]):
//
//   - certainty: the full-budget mean lies in [sum/total,
//     (sum+total−n)/total] no matter what the remaining draws yield;
//     if that interval excludes qp the full-budget decision is already
//     fixed.
//   - Hoeffding: |mean − E| <= sqrt(ln(2/δ)/(2n)) with probability
//     >= 1−δ for i.i.d. samples in [0, 1].
//   - empirical Bernstein (Maurer–Pontil): |mean − E| <=
//     sqrt(2·Vn·ln(2/δ)/n) + 7·ln(2/δ)/(3(n−1)) with Vn the sample
//     variance — far tighter than Hoeffding for the low-variance
//     kernels of clear-cut candidates (probability near 0 or 1),
//     which is exactly where early termination pays.
//
// If the tighter confidence interval around the running mean excludes
// qp, the candidate's true probability is on the decided side with
// confidence 1−δ. On a decision it returns the running mean clamped to
// [0, 1], which is guaranteed to be on the decided side of qp (so the
// caller's accept test agrees with the proof).
func Decided(sum, sumSq float64, n, total int, qp, delta float64) (float64, bool) {
	mean := sum / float64(n)
	if sum/float64(total) >= qp {
		return ClampProb(mean), true
	}
	if (sum+float64(total-n))/float64(total) < qp {
		return ClampProb(mean), true
	}
	lg := math.Log(2 / delta)
	eps := math.Sqrt(lg / (2 * float64(n)))
	if variance := (sumSq - float64(n)*mean*mean) / float64(n-1); variance > 0 {
		if eb := math.Sqrt(2*variance*lg/float64(n)) + 7*lg/(3*float64(n-1)); eb < eps {
			eps = eb
		}
	} else {
		// Zero sample variance: the Bernstein radius is purely the
		// bias term.
		if eb := 7 * lg / (3 * float64(n-1)); eb < eps {
			eps = eb
		}
	}
	if mean-eps >= qp || mean+eps < qp {
		return ClampProb(mean), true
	}
	return 0, false
}

// Tally accumulates one estimate's draws for Adaptive: their sum and
// sum of squares, which is all the stopping rule reads.
type Tally struct{ sum, sumSq float64 }

// Add records one draw v, which must lie in [0, 1].
func (t *Tally) Add(v float64) {
	t.sum += v
	t.sumSq += v * v
}

// Adaptive is the block-adaptive sampling driver: it averages up to
// total draws (each in [0, 1]), a block at a time, and stops as soon as
// Decided proves which side of the threshold qp the full-budget mean
// falls on. draw(n, t) must Add exactly n fresh draws to t and return
// it. Adaptive returns the estimate, the draws actually made, and
// whether a bound stopped sampling early. The estimate of an early stop
// is on the decided side of qp; otherwise it is the full-budget mean
// clamped to [0, 1].
//
// qp <= 0 means there is no decision to prove: exactly total draws are
// made and early is never reported. Blocks are requested strictly in
// sequence, so a caller whose draws consume a rand.Rand gets the same
// stream whatever the block size and wherever sampling stops.
//
// The callback is handed a block rather than asked for one draw
// because the draws are cheap (tens of nanoseconds): a call through a
// func value per draw — or through a type parameter's method, which Go
// dispatches the same way — measured 7–8 % on the refiners' inner
// loops, a call per block nothing. The tally travels by value so that
// it stays in the caller's registers and never reaches the heap.
func Adaptive(total, block int, qp, delta float64, draw func(n int, t Tally) Tally) (estimate float64, drawn int, early bool) {
	if total <= 0 {
		return 0, 0, false
	}
	if block <= 0 || qp <= 0 {
		block = total
	}
	var t Tally
	for drawn < total {
		n := min(block, total-drawn)
		t = draw(n, t)
		drawn += n
		if drawn < total {
			if p, done := Decided(t.sum, t.sumSq, drawn, total, qp, delta); done {
				return p, drawn, true
			}
		}
	}
	return ClampProb(t.sum / float64(total)), total, false
}

// SplitMix64 is the SplitMix64 finalizer: a bijective avalanche mix
// whose outputs for consecutive inputs are statistically independent.
// It is the standard recommendation for deriving child PRNG seeds from
// a parent seed plus an index.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DeriveSeed maps one parent draw and a child index (a candidate's
// object id, an NN sample block, a request's position in a fan-out) to
// a child seed. Unlike an additive parent+index scheme, two children of
// the same parent can never receive the same seed, and children of
// parents that happen to differ by a small offset do not collide
// either.
func DeriveSeed(parent int64, child int) int64 {
	return int64(SplitMix64(uint64(parent) + SplitMix64(uint64(child))))
}

// ClampProb snaps the tiny negative or >1 values floating-point
// accumulation leaves on an estimate back into [0, 1].
func ClampProb(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}
