package core

import (
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// PExpandedQuery constructs the p-expanded query of Definition 7 /
// Lemma 5 for probability value p, from the issuer's p-bound: any
// point object outside the returned rectangle has qualification
// probability less than p.
//
// By Lemma 5 the left side lcb(p) sits w units left of the issuer's
// left p-bound line l0(p) (it is d units right of lcb(0), where d is
// the distance from l0(0) to l0(p)); the other three sides follow by
// symmetry. At p = 0 the construction degenerates to the Minkowski sum
// R⊕U0. The rectangle may be Empty for large p and small ranges, which
// correctly means nothing can qualify.
func PExpandedQuery(b uncertain.Bound, w, h float64) geom.Rect {
	return geom.Rect{
		Lo: geom.Pt(b.Left-w, b.Bottom-h),
		Hi: geom.Pt(b.Right+w, b.Top+h),
	}
}

// SearchRegion returns the index probe region for the query: the
// Qp-expanded query when a threshold is set and the issuer has a
// U-catalog (using the largest catalog value M <= Qp, per §5.1),
// otherwise the plain Minkowski sum. The second return reports whether
// threshold shrinking was applied.
func SearchRegion(q Query) (geom.Rect, bool) {
	if q.Threshold > 0 {
		if b, ok := q.Issuer.Catalog.MaxLE(q.Threshold); ok && b.P > 0 {
			return PExpandedQuery(b, q.W, q.H), true
		}
	}
	return q.Expanded(), false
}

// beyondBound reports whether reg lies entirely beyond one of the four
// p-bound lines of b: right of Right, left of Left, above Top, or
// below Bottom. If so, the pdf mass inside reg is at most b.P.
func beyondBound(reg geom.Rect, b uncertain.Bound) bool {
	return reg.Lo.X >= b.Right || reg.Hi.X <= b.Left ||
		reg.Lo.Y >= b.Top || reg.Hi.Y <= b.Bottom
}

// massUpperBound returns the tightest catalog-certified upper bound on
// the object's pdf mass inside reg: the smallest catalog value d such
// that reg lies beyond the d-bound. Without such a row it returns 1.
// reg must be non-empty.
//
// Catalog rows are sorted ascending and bounds tighten monotonically
// with p, so the first row that clears reg is the tightest.
func massUpperBound(cat uncertain.Catalog, reg geom.Rect) float64 {
	for _, b := range cat.Bounds() {
		if beyondBound(reg, b) {
			return b.P
		}
	}
	return 1
}

// kernelUpperBound returns the tightest catalog-certified upper bound
// on the duality kernel Q(x,y) over the object region: the smallest
// issuer-catalog value q whose q-expanded query excludes region
// entirely (Definition 7: outside the q-expanded query every point's
// qualification probability is below q). Without such a row it
// returns 1.
func kernelUpperBound(issuerCat uncertain.Catalog, region geom.Rect, w, h float64) float64 {
	for _, b := range issuerCat.Bounds() {
		pe := PExpandedQuery(b, w, h)
		if pe.Empty() || !pe.Intersects(region) {
			return b.P
		}
	}
	return 1
}

// PruneVerdict says which strategy (if any) eliminated a candidate.
type PruneVerdict int

const (
	// KeepCandidate means no strategy applied; exact refinement is
	// required.
	KeepCandidate PruneVerdict = iota
	// PrunedStrategy1 is the object p-bound test (§5.2 Strategy 1).
	PrunedStrategy1
	// PrunedStrategy2 is the Qp-expanded-query containment test (§5.2
	// Strategy 2).
	PrunedStrategy2
	// PrunedStrategy3 is the qmin·dmin product test (§5.2 Strategy 3).
	PrunedStrategy3
	// PrunedEmptyOverlap means the candidate does not overlap R⊕U0 at
	// all (Lemma 1; only possible when the index probe was wider than
	// the Minkowski sum).
	PrunedEmptyOverlap
)

// StrategySet toggles the individual C-IUQ pruning strategies, for
// ablation experiments. The zero value enables everything.
type StrategySet struct {
	DisableStrategy1 bool
	DisableStrategy2 bool
	DisableStrategy3 bool
}

// pruneRegion applies the §5.2 pruning strategies to one uncertain
// candidate of a constrained query, from what the strategies read of
// it: its uncertainty region and its U-catalog — a table object's own,
// or a leaf record's computed from its rectangle (see
// engineState.pruneCandidate). The catalog is read only when qp > 0.
//
//	expanded  = R⊕U0 (Minkowski sum)
//	searchReg = Qp-expanded query (or expanded when unavailable)
//	qp        = probability threshold
//
// It never prunes a candidate whose qualification probability could
// reach qp; it returns the verdict for cost accounting.
func pruneRegion(q Query, region geom.Rect, cat uncertain.Catalog, expanded, searchReg geom.Rect, ss StrategySet) PruneVerdict {
	reg := region.Intersect(expanded)
	if reg.Empty() {
		return PrunedEmptyOverlap
	}
	qp := q.Threshold
	if qp <= 0 {
		return KeepCandidate
	}

	// Strategy 1: the overlap with R⊕U0 lies beyond the object's
	// M-bound, M = max catalog value <= Qp, so pi <= M <= Qp.
	if !ss.DisableStrategy1 {
		if b, ok := cat.MaxLE(qp); ok && beyondBound(reg, b) {
			return PrunedStrategy1
		}
	}

	// Strategy 2: the whole uncertainty region sits outside the
	// Qp-expanded query, so Q(x,y) < Qp everywhere and pi < Qp.
	if !ss.DisableStrategy2 {
		if searchReg.Empty() || !searchReg.Intersects(region) {
			return PrunedStrategy2
		}
	}

	// Strategy 3: combine the best mass bound dmin (object catalog)
	// with the best kernel bound qmin (issuer catalog) over the
	// integration domain reg = Ui ∩ (R⊕U0):
	// pi <= qmin · dmin, so prune when the product stays below Qp.
	// (Using reg instead of the whole Ui for the kernel bound is
	// sound — Lemma 4 integrates over reg only — and strictly tighter.)
	if !ss.DisableStrategy3 {
		dmin := massUpperBound(cat, reg)
		qmin := kernelUpperBound(q.Issuer.Catalog, reg, q.W, q.H)
		if qmin*dmin < qp {
			return PrunedStrategy3
		}
	}
	return KeepCandidate
}
