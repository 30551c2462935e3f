// Package pti implements the Probability Threshold Index of Cheng et
// al. (VLDB 2004) as used by the paper (§5.3): an R-tree over
// uncertainty regions whose entries additionally store, for every
// probability value in a shared U-catalog, the envelope of the
// subtree's p-bounds. A constrained query (C-IUQ) can then prune whole
// subtrees at the index level: if the expanded query region only
// touches a node beyond its right Qp-bound envelope, no object below
// the node can reach qualification probability Qp.
//
// The index is a thin layer over internal/index/rtree, using its
// auxiliary-payload hook; one catalog value occupies four float64s
// (left, right, bottom, top) of the payload, so with the paper's ten
// catalog values a 4 KiB node holds 11 entries.
package pti

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/uncertain"
)

// Index is a probability threshold index over uncertain objects.
type Index struct {
	tree  *rtree.Tree
	probs []float64 // ascending catalog probability values
}

// AuxLen returns the per-entry payload length for a catalog of n
// probability values.
func AuxLen(n int) int { return 4 * n }

// mergeAux folds one entry's bound payload into an envelope, per
// catalog value: min left, max right, min bottom, max top — exactly the
// paper's node-level MBR(m) rule ("if l2(0.3) is on the left of
// l1(0.3), then l2(0.3) is assigned to be the 0.3-bound for node X").
// The min and max builtins order -0 below +0 and propagate NaN as the
// math package's Min and Max do, and compile to inline code.
func mergeAux(dst, src []float64) {
	src = src[:len(dst)]
	for i := 0; i+3 < len(dst); i += 4 {
		dst[i] = min(dst[i], src[i])       // left
		dst[i+1] = max(dst[i+1], src[i+1]) // right
		dst[i+2] = min(dst[i+2], src[i+2]) // bottom
		dst[i+3] = max(dst[i+3], src[i+3]) // top
	}
}

// config builds the rtree configuration for the given catalog size.
func config(numProbs int) rtree.Config {
	return rtree.Config{
		AuxLen:   AuxLen(numProbs),
		MergeAux: mergeAux,
	}
}

// encodeBounds serializes an object's p-bounds at the index's catalog
// values. The object's own U-catalog must contain every index value.
func encodeBounds(o *uncertain.Object, probs []float64) ([]float64, error) {
	aux := make([]float64, 4*len(probs))
	for i, p := range probs {
		b, ok := o.Catalog.MaxLE(p)
		if !ok || b.P != p {
			return nil, fmt.Errorf("pti: object %d lacks catalog value %g", o.ID, p)
		}
		aux[4*i] = b.Left
		aux[4*i+1] = b.Right
		aux[4*i+2] = b.Bottom
		aux[4*i+3] = b.Top
	}
	return aux, nil
}

// validateProbs checks and normalizes the catalog probability list.
func validateProbs(probs []float64) ([]float64, error) {
	if len(probs) == 0 {
		return nil, errors.New("pti: empty catalog probability list")
	}
	out := append([]float64(nil), probs...)
	sort.Float64s(out)
	for i, p := range out {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("pti: catalog probability %g out of [0, 1]", p)
		}
		if i > 0 && out[i] == out[i-1] {
			return nil, fmt.Errorf("pti: duplicate catalog probability %g", p)
		}
	}
	return out, nil
}

// BulkLoad builds a PTI from objects using STR packing; with no
// objects it is an empty index.
func BulkLoad(store rtree.NodeStore, probs []float64, objs []*uncertain.Object) (*Index, error) {
	ps, err := validateProbs(probs)
	if err != nil {
		return nil, err
	}
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		aux, err := encodeBounds(o, ps)
		if err != nil {
			return nil, err
		}
		items[i] = rtree.Item{Rect: o.Region(), Ref: rtree.Ref(o.ID), Aux: aux}
	}
	tr, err := rtree.BulkLoad(store, config(len(ps)), items)
	if err != nil {
		return nil, err
	}
	return &Index{tree: tr, probs: ps}, nil
}

// CloneCOW returns a copy-on-write clone of the index: a mutable next
// version sharing every node with the receiver, which stays a
// consistent immutable view for concurrent searches. Seal the clone
// before publishing it (see rtree.Tree.CloneCOW).
func (ix *Index) CloneCOW() *Index {
	return &Index{tree: ix.tree.CloneCOW(), probs: ix.probs}
}

// FlushCOW writes the unsealed clone's cached node updates through to
// the store (see rtree.Tree.FlushCOW), so a rejected write can still
// be undone with Abort before Seal.
func (ix *Index) FlushCOW() error { return ix.tree.FlushCOW() }

// Seal finishes the copy-on-write phase (flushing any still-cached
// node updates) and returns the superseded node ids; free them via
// FreeRetired once no reader can still hold an earlier version.
func (ix *Index) Seal() ([]rtree.NodeID, error) { return ix.tree.Seal() }

// Abort discards an unsealed copy-on-write clone, freeing its private
// nodes; the parent index is untouched. The clone must not be used
// afterwards.
func (ix *Index) Abort() error { return ix.tree.AbortCOW() }

// FreeRetired releases node ids a sealed mutation retired.
func (ix *Index) FreeRetired(ids []rtree.NodeID) error { return ix.tree.FreeAll(ids) }

// Insert adds an uncertain object.
func (ix *Index) Insert(o *uncertain.Object) error {
	aux, err := encodeBounds(o, ix.probs)
	if err != nil {
		return err
	}
	return ix.tree.Insert(o.Region(), rtree.Ref(o.ID), aux)
}

// Delete removes an object previously inserted with the same region
// and id, reporting whether it was found.
func (ix *Index) Delete(o *uncertain.Object) (bool, error) {
	return ix.tree.Delete(o.Region(), rtree.Ref(o.ID))
}

// Tree exposes the underlying R-tree (for statistics and validation).
func (ix *Index) Tree() *rtree.Tree { return ix.tree }

// Probs returns the catalog probability values (ascending).
func (ix *Index) Probs() []float64 { return ix.probs }

// probIndex returns the position of the largest catalog value <= q,
// or -1 if all values exceed q.
func (ix *Index) probIndex(q float64) int {
	i := sort.SearchFloat64s(ix.probs, q)
	if i < len(ix.probs) && ix.probs[i] == q {
		return i
	}
	return i - 1
}

// RangeSearchCounted visits the ids of all objects whose uncertainty
// region intersects q (no probability pruning) and returns the node
// accesses this call performed. The count is local to the call, so
// concurrent searches each observe their own exact I/O cost.
func (ix *Index) RangeSearchCounted(q geom.Rect, visit func(id uncertain.ID) bool) (int64, error) {
	return ix.RangeLeavesCounted(q, func(e rtree.Entry, _ []float64) bool {
		return visit(uncertain.ID(e.Ref))
	})
}

// RangeLeavesCounted is RangeSearchCounted handing the caller each
// intersecting leaf entry — an object's region and id — with its
// stored bound payload.
func (ix *Index) RangeLeavesCounted(q geom.Rect, visit rtree.Visit) (int64, error) {
	return ix.tree.SearchCounted(q, nil, visit)
}

// ThresholdLeavesCounted is the index search of a constrained query
// with probability threshold qp:
//
//   - search is the index search region, normally the Qp-expanded
//     query (§5.3) — anything outside it is skipped by rectangle
//     tests alone (pruning Strategy 2 applied at every level);
//   - expanded is the Minkowski sum R⊕U0, the region over which
//     qualification probability mass can accrue (Lemma 4);
//   - at every interior entry, the M-bound envelope (M = largest
//     catalog value <= qp) prunes subtrees whose overlap with
//     expanded lies wholly beyond one of the four bound lines
//     (pruning Strategy 1 applied at the index level).
//
// Every leaf entry that intersects search is visited, untested, with
// its stored payload. The caller decides the entry with BoundPrunes on
// its M-bound row (see MRow) — the stored one, or one it can compute
// from the entry alone — and evaluates the survivors exactly. It
// returns the node accesses this call performed, counted locally for
// concurrent callers.
func (ix *Index) ThresholdLeavesCounted(search, expanded geom.Rect, qp float64, visit rtree.Visit) (int64, error) {
	row, m, ok := ix.MRow(qp)
	var prune rtree.NodePruner
	if ok {
		prune = func(e rtree.Entry, aux []float64) bool {
			return BoundPrunes(e.Rect, StoredRow(aux, row, m), expanded)
		}
	}
	return ix.tree.SearchCounted(search, prune, visit)
}

// ThresholdAdmits reports whether ThresholdLeavesCounted(search,
// expanded, qp) over an index holding o would visit o's entry and
// BoundPrunes on its stored M-bound row would keep it — the search's
// tests applied to the object directly. It decides the same set
// without descending the tree because both tests are monotone along
// the path from the root: a node's rectangle and bound envelope
// contain those of every entry below it, so an interior entry that
// fails a test implies o's own entry fails it too.
func (ix *Index) ThresholdAdmits(o *uncertain.Object, search, expanded geom.Rect, qp float64) bool {
	region := o.Region()
	if !search.Intersects(region) {
		return false
	}
	_, m, ok := ix.MRow(qp)
	if !ok {
		return true
	}
	// The row exists and is the stored one: Insert rejects an object
	// whose catalog lacks an index probability value, and stores the
	// catalog's row.
	b, _ := o.Catalog.MaxLE(m)
	return !BoundPrunes(region, b, expanded)
}

// MRow returns where the M-bound rows of threshold qp sit in every
// entry's payload (M = the largest catalog value <= qp) and M itself;
// ok is false when every catalog value exceeds qp, and then no bound
// prunes.
func (ix *Index) MRow(qp float64) (row int, m float64, ok bool) {
	row = ix.probIndex(qp)
	if row < 0 {
		return -1, 0, false
	}
	return row, ix.probs[row], true
}

// StoredRow returns the bound at probability p held at row of an
// entry's payload (see MRow).
func StoredRow(aux []float64, row int, p float64) uncertain.Bound {
	r := aux[4*row : 4*row+4]
	return uncertain.Bound{P: p, Left: r[0], Right: r[1], Bottom: r[2], Top: r[3]}
}

// BoundPrunes reports whether the overlap of region (an entry's MBR)
// with the expanded query is empty or lies entirely beyond one of b's
// four lines, in which case the probability mass the query can reach
// below the entry is at most b.P. It is the threshold search's test at
// every level of the tree.
func BoundPrunes(region geom.Rect, b uncertain.Bound, expanded geom.Rect) bool {
	reg := region.Intersect(expanded)
	if reg.Empty() {
		return true // no overlap at all: zero qualification probability
	}
	return reg.Lo.X >= b.Right || reg.Hi.X <= b.Left ||
		reg.Lo.Y >= b.Top || reg.Hi.Y <= b.Bottom
}

// Restore rebuilds a sealed index handle over nodes already present in
// store — the checkpoint loader's constructor, mirroring
// rtree.Restore. probs must be the catalog the nodes were built with
// (their aux payloads carry AuxLen(len(probs)) floats per entry).
func Restore(store rtree.NodeStore, probs []float64, root rtree.NodeID, height, size int) (*Index, error) {
	ps, err := validateProbs(probs)
	if err != nil {
		return nil, err
	}
	tr, err := rtree.Restore(store, config(len(ps)), root, height, size)
	if err != nil {
		return nil, err
	}
	return &Index{tree: tr, probs: ps}, nil
}
