package core

import (
	"sort"

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

// catalogRows is a candidate's U-catalog as the pruning strategies
// read it, one row at a time: an irregular object's stored rows, or — probs
// set — a leaf record's, each computed by uncertain.UniformBound from
// its rectangle at the index's catalog values when it is read. Rows
// are ascending in P, and every P lies in [0, 1] (NewCatalog).
type catalogRows struct {
	stored []uncertain.Bound
	probs  []float64
	rect   geom.Rect
}

// storedRows reads an irregular object's catalog.
func storedRows(cat uncertain.Catalog) catalogRows { return catalogRows{stored: cat.Bounds()} }

// leafRows reads a leaf record's catalog: the rows of the uniform pdf
// over rect at the index's catalog values probs.
func leafRows(rect geom.Rect, probs []float64) catalogRows {
	return catalogRows{probs: probs, rect: rect}
}

func (r *catalogRows) len() int {
	if r.probs != nil {
		return len(r.probs)
	}
	return len(r.stored)
}

// p returns row i's probability value without computing the row.
func (r *catalogRows) p(i int) float64 {
	if r.probs != nil {
		return r.probs[i]
	}
	return r.stored[i].P
}

func (r *catalogRows) row(i int) uncertain.Bound {
	if r.probs != nil {
		return uncertain.UniformBound(r.rect, r.probs[i])
	}
	return r.stored[i]
}

// maxLE returns the index of the row Catalog.MaxLE(q) returns — the
// one with the largest value <= q — or -1 when every row exceeds q.
func (r *catalogRows) maxLE(q float64) int {
	return sort.Search(r.len(), func(i int) bool { return r.p(i) > q }) - 1
}

// massUpperBound returns a catalog-certified upper bound on the
// object's pdf mass inside reg (non-empty), as tight as Strategy 3's
// product qmin·d against the threshold qp needs. It reads rows from
// row from on, one at a time in ascending order:
//
//   - the first row whose d-bound reg lies beyond gives d, the
//     tightest bound (a row with a smaller value came first);
//   - reading stops before computing the first row whose value d has
//     qmin·d ≥ qp, and returns 1: every later row's value, and 1,
//     is at least d, so no bound a later row certifies can bring the
//     product below qp (IEEE multiplication is monotone);
//   - without either, it returns 1.
//
// Pass qp = +Inf for the tightest bound over all rows from from.
//
// from skips rows the caller knows reg does not lie beyond. For a
// leaf record the PTI leaf test admitted, that is every row up to M
// (see engineState.pruneCandidate): its row at v has Left =
// lo + v·(hi−lo) and Right = lo + (1−v)·(hi−lo), the two
// UniformMarginal.InvCDF forms, each monotone in v under IEEE
// rounding, and so on the Y axis. A row at v ≤ M therefore lies
// outside row M on every side, and reg beyond it would be beyond row
// M, which the leaf test ruled out.
func massUpperBound(rows *catalogRows, from int, reg geom.Rect, qmin, qp float64) float64 {
	for i := from; i < rows.len(); i++ {
		d := rows.p(i)
		if qmin*d >= qp {
			return 1
		}
		if beyondBound(reg, rows.row(i)) {
			return d
		}
	}
	return 1
}

// kernelRows is how many issuer-catalog rows a queryPlan holds the
// q-expanded query of, in a fixed array: the paper's ten and then
// some. A longer issuer catalog's later rows are expanded when read.
const kernelRows = 16

// kernelUpperBound returns the tightest catalog-certified upper bound
// on the duality kernel Q(x,y) over the object region: the smallest
// issuer-catalog value q whose q-expanded query excludes region
// entirely (Definition 7: outside the q-expanded query every point's
// qualification probability is below q). Without such a row it
// returns 1.
//
// It reads the q-expanded queries the plan built once for the request.
// When they are nested (queryPlan.kernelNested), a query that excludes
// region is followed only by queries that exclude it too — each side
// of a nested query is at or inside the one before, so it is empty or
// misses region whenever that one does — and the first one is found by
// bisection: four tests for the paper's ten rows, where a region every
// query reaches took ten.
func (p *queryPlan) kernelUpperBound(region geom.Rect) float64 {
	rows := p.q.Issuer.Catalog.Bounds()
	var i int
	if p.kernelNested {
		i = sort.Search(p.kernelN, func(i int) bool { return excludes(p.kernel[i], region) })
	} else {
		for i < p.kernelN && !excludes(p.kernel[i], region) {
			i++
		}
	}
	if i < p.kernelN {
		return rows[i].P
	}
	for ; i < len(rows); i++ {
		if excludes(PExpandedQuery(rows[i], p.q.W, p.q.H), region) {
			return rows[i].P
		}
	}
	return 1
}

// excludes reports whether the q-expanded query pe certifies Q < q
// over region: it is empty or misses region.
func excludes(pe, region geom.Rect) bool { return pe.Empty() || !pe.Intersects(region) }

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
// it: its uncertainty region and its U-catalog rows — a table
// object's own, or a leaf record's computed from its rectangle (see
// engineState.pruneCandidate). Rows are read only when qp > 0, and
// only those a verdict needs.
//
//	plan.expanded  = R⊕U0 (Minkowski sum)
//	plan.searchReg = Qp-expanded query (or expanded when unavailable)
//	qp             = probability threshold
//
// mTested says the PTI leaf test already admitted the candidate on
// its M row, M = max catalog value <= Qp — a leaf record visited by
// the threshold search. Then Strategy 1 is decided (the leaf test is
// its test on the same row over the same overlap), so is Strategy 2
// (the search visits only entries that intersect searchReg), and no
// row up to M can clear the overlap (see massUpperBound): Strategy 3
// reads only the rows above M.
//
// It never prunes a candidate whose qualification probability could
// reach qp; it returns the verdict for cost accounting.
func pruneRegion(plan *queryPlan, region geom.Rect, rows *catalogRows, mTested bool, ss StrategySet) PruneVerdict {
	reg := region.Intersect(plan.expanded)
	if reg.Empty() {
		return PrunedEmptyOverlap
	}
	qp := plan.q.Threshold
	if qp <= 0 {
		return KeepCandidate
	}

	// Row m is the object's M-bound, M = max catalog value <= Qp.
	m := rows.maxLE(qp)
	if !mTested {
		// Strategy 1: the overlap with R⊕U0 lies beyond the M-bound,
		// so pi <= M <= Qp.
		if !ss.DisableStrategy1 && m >= 0 && beyondBound(reg, rows.row(m)) {
			return PrunedStrategy1
		}

		// Strategy 2: the whole uncertainty region sits outside the
		// Qp-expanded query, so Q(x,y) < Qp everywhere and pi < Qp.
		if !ss.DisableStrategy2 && (plan.searchReg.Empty() || !plan.searchReg.Intersects(region)) {
			return PrunedStrategy2
		}
	}

	// Strategy 3: combine the best mass bound dmin (object catalog)
	// with the best kernel bound qmin (issuer catalog) over the
	// integration domain reg = Ui ∩ (R⊕U0):
	// pi <= qmin · dmin, so prune when the product stays below Qp.
	// (Using reg instead of the whole Ui for the kernel bound is
	// sound — Lemma 4 integrates over reg only — and strictly tighter.)
	// qmin comes first: it decides how many object rows are worth
	// reading.
	if !ss.DisableStrategy3 {
		from := 0
		if mTested {
			from = m + 1
		}
		qmin := plan.kernelUpperBound(reg)
		if qmin*massUpperBound(rows, from, reg, qmin, qp) < qp {
			return PrunedStrategy3
		}
	}
	return KeepCandidate
}
