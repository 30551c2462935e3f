// Package pdf models the uncertainty probability density functions of
// the location uncertainty model (paper §3.1, Definitions 1–2): each
// uncertain object has a closed uncertainty region and a pdf that is
// zero outside it and integrates to one over it.
//
// The package provides:
//
//   - the PDF interface (support region, density, rectangle mass,
//     sampling), sufficient for every evaluation path in the engine;
//   - the Marginal interface for one-dimensional marginals, with exact
//     partial moments — the ingredient that makes the Lemma 3/Lemma 4
//     duality formulas closed-form for separable pdfs;
//   - concrete pdfs: uniform (the paper's default, §3.1), truncated
//     Gaussian (the paper's non-uniform experiment, §6.2), histogram
//     grids and mixtures for arbitrary application-specific pdfs
//     ("our solutions are applicable to any form of uncertainty pdf").
//
// All pdfs are immutable after construction and safe for concurrent
// use.
package pdf

import (
	"math/rand"

	"repro/internal/geom"
)

// PDF is a two-dimensional probability density over a rectangular
// support region. Implementations must guarantee that MassIn(Support())
// is 1 (within numerical tolerance) and that At is zero outside the
// support.
type PDF interface {
	// Support returns the uncertainty region Ui: the closed rectangle
	// outside which the density is zero.
	Support() geom.Rect

	// At returns the density at p (0 outside the support).
	At(p geom.Point) float64

	// MassIn returns the probability mass inside r, i.e. the integral
	// of the density over r ∩ Support(). This is Equation 3 of the
	// paper when r is the query rectangle.
	MassIn(r geom.Rect) float64

	// Sample draws a random location distributed according to the pdf,
	// using the supplied source for determinism.
	Sample(rng *rand.Rand) geom.Point
}

// Separable is a PDF that factors as fX(x)·fY(y). Separability is what
// turns the duality integrals (Lemma 3, Lemma 4) into products of
// one-dimensional closed forms; both the uniform and the axis-aligned
// truncated Gaussian used in the paper are separable.
type Separable interface {
	PDF

	// MarginalX returns the marginal distribution of the X coordinate.
	MarginalX() Marginal
	// MarginalY returns the marginal distribution of the Y coordinate.
	MarginalY() Marginal
}

// Marginal is a one-dimensional distribution on a closed interval.
type Marginal interface {
	// Bounds returns the support interval [lo, hi].
	Bounds() (lo, hi float64)

	// At returns the density at x (0 outside the support).
	At(x float64) float64

	// CDF returns P(X <= x). It is 0 left of the support and 1 right
	// of it, and non-decreasing in between.
	CDF(x float64) float64

	// InvCDF returns the smallest x with CDF(x) >= p, for p in [0, 1].
	// It is the exact tool for p-bound construction (§5.1): the left
	// p-bound line l(p) is InvCDF(p) of the X marginal.
	InvCDF(p float64) float64

	// PartialMoments returns the zeroth and first partial moments over
	// [a, b] ∩ support:
	//
	//	m0 = ∫ f(x) dx        (probability mass in [a, b])
	//	m1 = ∫ x·f(x) dx
	//
	// These two numbers suffice to integrate any piecewise-linear
	// function against the marginal exactly, which is how the engine
	// evaluates Lemma 4 in closed form.
	PartialMoments(a, b float64) (m0, m1 float64)

	// Sample draws a random value from the marginal.
	Sample(rng *rand.Rand) float64
}
