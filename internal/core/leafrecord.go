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

// pruneCandidate runs the pruning strategies on c with its U-catalog:
// a table object's own, or a leaf record's computed from its rectangle
// into sc — only when there is a threshold, the one case the
// strategies read it.
func (st *engineState) pruneCandidate(plan *queryPlan, c *candidate, ss StrategySet, sc *evalScratch) PruneVerdict {
	var cat uncertain.Catalog
	switch {
	case c.obj != nil:
		cat = c.obj.Catalog
	case plan.q.Threshold > 0:
		cat = uncertain.UniformCatalog(sc.rows, c.region, st.uncIdx.Probs())
		sc.rows = cat.Bounds()
	}
	return pruneRegion(plan.q, c.region, cat, plan.expanded, plan.searchReg, ss)
}
