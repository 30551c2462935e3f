package core

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/mcbound"
	"repro/internal/pdf"
)

// PointQualification computes a point object's qualification
// probability by query–data duality (Lemma 3):
//
//	pi = ∫_{R(xi,yi) ∩ U0} f0(x,y) dxdy
//
// i.e. the issuer-pdf mass in the query rectangle re-centered at the
// object. Every pdf in this repository evaluates rectangle mass in
// closed form, so this is exact — for the uniform issuer it reduces to
// the paper's Equation 6 (overlap area over |U0|).
func PointQualification(issuer pdf.PDF, s geom.Point, w, h float64) float64 {
	return mcbound.ClampProb(issuer.MassIn(geom.RectCentered(s, w, h)))
}

// PointQualificationBasic computes the same probability the basic way
// (§3.3, Equation 2): sample the issuer's location n times and count
// how often the object falls inside the range query formed at each
// sample. This is the baseline the duality formula replaces.
func PointQualificationBasic(issuer pdf.PDF, s geom.Point, w, h float64, n int, rng *rand.Rand) float64 {
	p, _, _ := pointQualificationMCThreshold(issuer, s, w, h, 0, n, rng)
	return p
}

// DualityKernel returns Q(x,y) of Lemma 3/4: the qualification
// probability a point object at (x,y) would have — the issuer-pdf mass
// of the query rectangle centered at (x,y). It is zero outside R⊕U0.
func DualityKernel(issuer pdf.PDF, w, h float64) func(geom.Point) float64 {
	return func(p geom.Point) float64 {
		return issuer.MassIn(geom.RectCentered(p, w, h))
	}
}

// AdaptiveMode selects whether Monte-Carlo refinement of threshold
// queries may terminate early once a confidence bound has decided the
// candidate.
type AdaptiveMode int

const (
	// AdaptiveAuto (the default) enables early termination whenever
	// the query carries a probability threshold. Unconstrained queries
	// always draw the full budget (there is no decision to prove).
	AdaptiveAuto AdaptiveMode = iota
	// AdaptiveOff always draws the full MCSamples budget — the mode to
	// use when the estimate itself (not just the threshold decision)
	// must carry full-budget accuracy.
	AdaptiveOff
)

// mcBlock is the samples between the range refiners' bound checks.
const mcBlock = 64

// ObjectEvalConfig tunes uncertain-object refinement. Its numerics are
// fixed: Monte-Carlo early stops check every 64 samples at failure
// probability δ = mcbound.Delta = 1e-6 per check, and smooth separable
// factors integrate with a 24-node Gauss–Legendre rule.
type ObjectEvalConfig struct {
	// ForceMonteCarlo evaluates by sampling even when a closed form or
	// quadrature exists — the mode the paper benchmarks for
	// non-uniform pdfs (§6.2, "we have used the Monte-Carlo
	// technique... at least 200 samples for C-IPQ and 250 for C-IUQ").
	ForceMonteCarlo bool
	// MCSamples is the Monte-Carlo sample count (default 256, matching
	// the paper's sensitivity analysis scale).
	MCSamples int
	// Adaptive controls threshold early termination for Monte-Carlo
	// refinement (default AdaptiveAuto). For a threshold query,
	// sampling proceeds in blocks of 64 and stops as soon as either
	// (a) the remaining draws cannot change which side of the
	// threshold the full-budget estimate lands on (a certainty bound:
	// kernel values lie in [0, 1]), or (b) a confidence bound — the
	// tighter of Hoeffding and empirical Bernstein, at confidence
	// 1−δ — separates the running mean from the threshold. Clear-cut
	// candidates settle after a fraction of the budget; borderline ones
	// still draw all MCSamples.
	Adaptive AdaptiveMode
}

func (c ObjectEvalConfig) withDefaults() ObjectEvalConfig {
	if c.MCSamples <= 0 {
		c.MCSamples = 256
	}
	return c
}

// ObjectQualification computes an uncertain object's qualification
// probability by Lemma 4:
//
//	pi = ∫_{Ui ∩ (R⊕U0)} fi(x,y) · Q(x,y) dxdy
//
// Evaluation strategy, fastest applicable first:
//
//   - both pdfs separable and the issuer's marginals piecewise linear
//     (uniform/histogram): exact closed form via partial moments;
//   - both pdfs separable: two one-dimensional Gauss–Legendre
//     integrals (spectrally accurate for the smooth Gaussian kernel);
//   - otherwise (or when cfg.ForceMonteCarlo): Monte-Carlo over the
//     object's own distribution, pi = E_fi[Q(X)], which is unbiased
//     because Q vanishes outside R⊕U0, drawn from rng (nil draws
//     math/rand's stream for seed 1).
//
// When evaluating many candidates of one query, prepare a reusable
// ObjectQualifier instead — this convenience form rebuilds the
// issuer-side state (expanded support, shifted breakpoints) per call.
func ObjectQualification(issuer, obj pdf.PDF, w, h float64, cfg ObjectEvalConfig, rng *rand.Rand) float64 {
	return NewObjectQualifier(issuer, w, h).Qualify(obj, cfg, rng)
}

// pointQualificationMCThreshold is the Monte-Carlo point refinement
// (the §3.3 basic method, and the §6.2 regime for non-uniform issuer
// pdfs): sample the issuer's location and count how often the object
// falls inside the range query formed at each sample. The indicator
// draws lie in {0, 1} ⊂ [0, 1], so the shared driver's stopping rule
// applies as is: for qp > 0 sampling stops, in blocks of mcBlock, once
// a bound decides the candidate. It returns the estimate, the samples
// actually drawn, and whether sampling terminated early; qp <= 0 draws
// the full budget.
func pointQualificationMCThreshold(issuer pdf.PDF, s geom.Point, w, h, qp float64, total int, rng *rand.Rand) (float64, int, bool) {
	return mcbound.Adaptive(total, mcBlock, qp, mcbound.Delta, func(n int, t mcbound.Tally) mcbound.Tally {
		for ; n > 0; n-- {
			if geom.RectCentered(issuer.Sample(rng), w, h).Contains(s) {
				t.Add(1)
			} else {
				t.Add(0)
			}
		}
		return t
	})
}

// objectQualificationBasicThreshold is the basic (§3.3)
// issuer-sampling estimator run through the shared driver: each draw
// is the object's mass in the range query formed at one issuer sample,
// which lies in [0, 1], so for qp > 0 sampling stops, in blocks of
// mcBlock, once a bound decides the candidate — the same rule every
// other Monte-Carlo refinement path applies. It returns the estimate,
// the issuer samples actually drawn, and whether sampling terminated
// early; qp <= 0 draws the full budget.
func objectQualificationBasicThreshold(issuer, obj pdf.PDF, w, h, qp float64, total int, rng *rand.Rand) (float64, int, bool) {
	return mcbound.Adaptive(total, mcBlock, qp, mcbound.Delta, func(n int, t mcbound.Tally) mcbound.Tally {
		for ; n > 0; n-- {
			t.Add(obj.MassIn(geom.RectCentered(issuer.Sample(rng), w, h)))
		}
		return t
	})
}
