package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// isLeafRecord reports whether o's PTI leaf entry {Rect: o.Region(),
// Ref: o.ID} is its whole record for the range path under an index at
// catalog values probs: o's pdf is the uniform product over that
// rectangle, and its U-catalog holds exactly the rows UniformBound
// computes from the rectangle at probs — so the leaf's stored payload,
// which Insert copies from that catalog, holds them too. Rows are
// compared bit for bit: a catalog restored with any other row (even a
// -0 for a +0) keeps its object on the table path.
func isLeafRecord(o *uncertain.Object, probs []float64) bool {
	region, ok := pdf.UniformSupport(o.PDF)
	if !ok {
		return false
	}
	rows := o.Catalog.Bounds()
	if len(rows) != len(probs) {
		return false
	}
	for i, b := range rows {
		if !sameBound(b, uncertain.UniformBound(region, probs[i])) {
			return false
		}
	}
	return true
}

// sameBound reports whether two catalog rows are equal bit for bit.
func sameBound(a, b uncertain.Bound) bool {
	return math.Float64bits(a.P) == math.Float64bits(b.P) &&
		math.Float64bits(a.Left) == math.Float64bits(b.Left) &&
		math.Float64bits(a.Right) == math.Float64bits(b.Right) &&
		math.Float64bits(a.Bottom) == math.Float64bits(b.Bottom) &&
		math.Float64bits(a.Top) == math.Float64bits(b.Top)
}

// irregularSet builds the id set of the objects in tab that are not
// leaf records at probs — the constructor and checkpoint restore's
// engineState.irregular.
func irregularSet(tab *cowTable[*uncertain.Object], probs []float64) *cowTable[struct{}] {
	set := newCowTable[struct{}](0)
	tab.Range(func(id uncertain.ID, o *uncertain.Object) bool {
		if !isLeafRecord(o, probs) {
			set.put(id, struct{}{})
		}
		return true
	})
	return set
}

// inTable reports whether the range path must read id's object from
// the table: id is not a leaf record. In a state without such objects
// it is one length check.
func (st *engineState) inTable(id uncertain.ID) bool {
	if st.irregular.Len() == 0 {
		return false
	}
	_, ok := st.irregular.Get(id)
	return ok
}

// candidate is one object the range filter surfaced: its id and region
// — a PTI leaf entry's two fields — and, on the table path, its
// object. obj is nil for a leaf record, whose pdf and catalog follow
// from region alone. p is the probability refinement computes.
type candidate struct {
	id     uncertain.ID
	region geom.Rect
	obj    *uncertain.Object
	p      float64
}

// pruneCandidate runs the pruning strategies on c, reading its
// U-catalog rows as they are needed: a table object's stored rows, or
// a leaf record's computed from its rectangle (catalogRows).
//
// leafTested says the index's leaf test admitted c's entry on the row
// computed at M, the largest index value <= Qp. For a leaf record
// that settles Strategies 1 and 2, and also every row below M:
// UniformMarginal.InvCDF(v) = lo + v·(hi−lo) is monotone in v under
// IEEE rounding, so a row at v ≤ M lies outside row M on every side,
// and an overlap beyond it would be beyond row M — which the leaf test
// ruled out. Strategy 3 then reads the issuer's kernel bound qmin
// first and only the rows above M, stopping at the first that clears
// the overlap or whose value d has qmin·d ≥ Qp. A table object's
// catalog need not be monotone bit for bit, so it is read from its
// first row.
func (st *engineState) pruneCandidate(plan *queryPlan, c *candidate, leafTested bool, ss StrategySet) PruneVerdict {
	if c.obj != nil {
		rows := storedRows(c.obj.Catalog)
		return pruneRegion(plan, c.region, &rows, false, ss)
	}
	rows := leafRows(c.region, st.uncIdx.Probs())
	return pruneRegion(plan, c.region, &rows, leafTested, ss)
}
