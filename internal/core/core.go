// Package core implements the paper's contribution: efficient
// evaluation of imprecise location-dependent range queries over point
// objects (IPQ) and uncertain objects (IUQ), with or without a
// probability threshold constraint (C-IPQ, C-IUQ).
//
// The evaluation pipeline composes the paper's three ideas:
//
//  1. Query expansion (§4.1): the Minkowski sum R⊕U0 filters out
//     objects with zero qualification probability using an ordinary
//     spatial index (Lemma 1).
//  2. Query–data duality (§4.2): the qualification probability of a
//     point object is the issuer-pdf mass in the rectangle R centered
//     at the object (Lemma 3); for an uncertain object it is a
//     weighted integral of that quantity over Ui ∩ (R⊕U0) (Lemma 4).
//     For separable pdfs both reduce to one-dimensional closed forms.
//  3. Threshold pruning (§5): the Qp-expanded query (Lemma 5) shrinks
//     the index probe, and p-bounds from U-catalogs prune uncertain
//     candidates via three strategies, at both object and PTI-node
//     level.
//
// The "basic" method of §3.3 (direct numerical integration of
// Equations 2 and 4) is implemented as well; it is the baseline of the
// paper's Figure 8.
//
// Every kind and method is that one shape — filter, prune, refine,
// accept against Qp — with a different candidate source and a different
// per-candidate estimator, and the code has one kernel per idea:
//
//   - sampling: every Monte-Carlo refiner is a call to the one
//     block-adaptive driver, mcbound.Adaptive, with its own draw; the
//     stopping rule and the seed derivation keying every stream live
//     beside it.
//   - range evaluation: evaluateUncertainEnhanced is the filter → prune
//     → refineSurvivors → merge pipeline over the PTI, one prune kernel
//     (pruneRegion) and one closed form (ObjectQualifier.closedForm)
//     for both candidate sources — a leaf record, whose PTI leaf entry
//     is its whole record (see engineState.irregular), or a table
//     object; scanQualifyAccept is the interleaved pass, parameterised
//     by probe region, candidate source and a qualifier chosen up front
//     — the enhanced point path and both MethodBasic paths.
//   - nearest neighbor: collectNN + refineNNCandidates, which a
//     single-engine evaluation, Snapshot.NNCandidates and
//     EvaluateNNCandidates are compositions of — so a fleet router's NN
//     answer and a single engine's come out of the same lines.
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

// Errors returned by the engine.
var (
	ErrNilIssuer     = errors.New("core: query has no issuer")
	ErrBadExtents    = errors.New("core: query half extents must be positive")
	ErrBadThreshold  = errors.New("core: probability threshold must be in [0, 1]")
	ErrUnknownMethod = errors.New("core: unknown evaluation method")
	// ErrSampleBudget reports that a query's Monte-Carlo refinement
	// would exceed EvalOptions.MaxSamples; like a deadline expiry it
	// ends only that query.
	ErrSampleBudget = errors.New("core: per-query Monte-Carlo sample budget exhausted")
)

// Query is an imprecise location-dependent range query: the issuer's
// location is uncertain (region + pdf, optionally with a U-catalog),
// and the range is the axis-parallel rectangle with half-width W and
// half-height H centered at the issuer's true position.
type Query struct {
	// Issuer is the query issuer O0. Its PDF describes the location
	// uncertainty; its Catalog (if present) enables the Qp-expanded
	// query of §5.1.
	Issuer *uncertain.Object
	// W and H are the query rectangle's half-width and half-height.
	W, H float64
	// Threshold is the probability threshold Qp of the constrained
	// queries (Definitions 5 and 6); 0 means unconstrained (IPQ/IUQ,
	// which return every object with non-zero probability).
	Threshold float64
}

// Validate checks the query's parameters.
func (q Query) Validate() error {
	if q.Issuer == nil {
		return ErrNilIssuer
	}
	if q.W <= 0 || q.H <= 0 {
		return fmt.Errorf("%w: w=%g h=%g", ErrBadExtents, q.W, q.H)
	}
	if q.Threshold < 0 || q.Threshold > 1 {
		return fmt.Errorf("%w: %g", ErrBadThreshold, q.Threshold)
	}
	return nil
}

// Expanded returns the Minkowski sum R ⊕ U0 (§4.1): the region outside
// which qualification probabilities are zero.
func (q Query) Expanded() geom.Rect {
	return geom.ExpandedQuery(q.Issuer.Region(), q.W, q.H)
}

// Match pairs an object id with its qualification probability.
type Match struct {
	ID uncertain.ID
	P  float64
}

// Cost reports what one query evaluation did. NodeAccesses is the
// paper's I/O metric; the pruning counters break down where candidates
// were eliminated.
type Cost struct {
	// Candidates is the number of objects surfaced by the index probe.
	Candidates int
	// PrunedStrategy1 counts candidates removed by the object p-bound
	// test (§5.2 Strategy 1).
	PrunedStrategy1 int
	// PrunedStrategy2 counts candidates removed because their region
	// lies outside the Qp-expanded query (§5.2 Strategy 2).
	PrunedStrategy2 int
	// PrunedStrategy3 counts candidates removed by the qmin·dmin
	// product bound (§5.2 Strategy 3).
	PrunedStrategy3 int
	// Refined is the number of exact probability evaluations.
	Refined int
	// BelowThreshold counts refined candidates whose exact probability
	// missed the threshold (or was zero for unconstrained queries).
	BelowThreshold int
	// SamplesUsed is the total number of Monte-Carlo samples drawn by
	// refinement (zero when every candidate refines in closed form).
	// With adaptive early termination this is the observable saving:
	// compare against Refined × MCSamples.
	SamplesUsed int64
	// EarlyStopped counts Monte-Carlo refinements that terminated
	// before the full sample budget because a confidence bound already
	// decided the candidate against the query threshold (§ adaptive
	// refinement; see ObjectEvalConfig.Adaptive).
	EarlyStopped int
	// NodeAccesses is the number of index nodes (pages) read.
	NodeAccesses int64
	// Duration is the wall-clock evaluation time.
	Duration time.Duration
}

// Result is a query evaluation outcome.
type Result struct {
	Matches []Match
	Cost    Cost
	// Tau is the nearest-neighbor pruning radius of a KindNN
	// evaluation: the smallest maximum distance any indexed point has
	// to the issuer region, so every position in U0 has its nearest
	// neighbor within Tau. +Inf over an empty database; zero for the
	// range kinds (which prune by region overlap, not distance).
	// Standing-query guards derive from it (Request.GuardRegionTau).
	Tau float64
}

// Method selects an evaluation algorithm.
type Method int

const (
	// MethodEnhanced is the paper's proposal: Minkowski/Qp-expanded
	// filtering plus duality-based probability computation (closed
	// form where pdfs allow, quadrature or Monte-Carlo otherwise).
	MethodEnhanced Method = iota
	// MethodBasic is §3.3: sample the issuer region and integrate the
	// definitions (Equations 2 and 4) directly.
	MethodBasic
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodEnhanced:
		return "enhanced"
	case MethodBasic:
		return "basic"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// clampProb snaps tiny negative or >1 values arising from floating
// point accumulation back into [0, 1].
func clampProb(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}
