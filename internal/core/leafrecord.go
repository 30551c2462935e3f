package core

import (
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// object returns the object with the given id: its irregular object,
// or the one its leaf record stands for, rebuilt.
func (st *engineState) object(id uncertain.ID) (*uncertain.Object, bool) {
	r, ok := st.objects.Get(id)
	if !ok {
		return nil, false
	}
	return st.objectAt(id, r), true
}

// objectAt is object for an id whose rectangle the caller holds.
func (st *engineState) objectAt(id uncertain.ID, r geom.Rect) *uncertain.Object {
	if o := st.irregularObject(id); o != nil {
		return o
	}
	return st.uncIdx.LeafObject(id, r)
}

// irregularObject returns id's object if it is not a leaf record, nil
// if it is one. In a state without such objects it is one length
// check.
func (st *engineState) irregularObject(id uncertain.ID) *uncertain.Object {
	if st.irregular.Len() == 0 {
		return nil
	}
	o, _ := st.irregular.Get(id)
	return o
}

// candidate is one object the range filter surfaced: its id and region
// — a PTI leaf entry's two fields — and, for an object that is not a
// leaf record, its irregular object. obj is nil for a leaf record,
// whose pdf and catalog follow from region alone. p is the probability
// refinement computes.
type candidate struct {
	id     uncertain.ID
	region geom.Rect
	obj    *uncertain.Object
	p      float64
}

// pruneCandidate runs the pruning strategies on c, reading its
// U-catalog rows as they are needed: an irregular object's stored
// rows, or a leaf record's computed from its rectangle (catalogRows).
//
// leafTested says the index's leaf test admitted c's entry on the row
// computed at M, the largest index value <= Qp. For a leaf record
// that settles Strategies 1 and 2, and also every row below M:
// UniformMarginal.InvCDF(v) = lo + v·(hi−lo) is monotone in v under
// IEEE rounding, so a row at v ≤ M lies outside row M on every side,
// and an overlap beyond it would be beyond row M — which the leaf test
// ruled out. Strategy 3 then reads the issuer's kernel bound qmin
// first and only the rows above M, stopping at the first that clears
// the overlap or whose value d has qmin·d ≥ Qp. An irregular object's
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
