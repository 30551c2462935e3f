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

// New creates an empty PTI over the given node store with the given
// shared catalog probability values.
func New(store rtree.NodeStore, probs []float64) (*Index, error) {
	ps, err := validateProbs(probs)
	if err != nil {
		return nil, err
	}
	tr, err := rtree.New(store, config(len(ps)))
	if err != nil {
		return nil, err
	}
	return &Index{tree: tr, probs: ps}, nil
}

// BulkLoad builds a PTI from objects using STR packing.
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

// Len returns the number of indexed objects.
func (ix *Index) Len() int { return ix.tree.Len() }

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

// RangeSearch visits the ids of all objects whose uncertainty region
// intersects q (no probability pruning).
func (ix *Index) RangeSearch(q geom.Rect, visit func(id uncertain.ID) bool) error {
	_, err := ix.RangeSearchCounted(q, visit)
	return err
}

// RangeSearchCounted is RangeSearch returning the node accesses this
// call performed. The count is local to the call, so concurrent
// searches each observe their own exact I/O cost.
func (ix *Index) RangeSearchCounted(q geom.Rect, visit func(id uncertain.ID) bool) (int64, error) {
	return ix.tree.SearchCounted(q, nil, func(e rtree.Entry, _ []float64) bool {
		return visit(uncertain.ID(e.Ref))
	})
}

// ThresholdSearch visits candidate ids for a constrained query with
// probability threshold qp:
//
//   - search is the index search region, normally the Qp-expanded
//     query (§5.3) — anything outside it is skipped by rectangle
//     tests alone (pruning Strategy 2 applied at every level);
//   - expanded is the Minkowski sum R⊕U0, the region over which
//     qualification probability mass can accrue (Lemma 4);
//   - at every node and leaf entry, the M-bound envelope (M = largest
//     catalog value <= qp) prunes subtrees whose overlap with
//     expanded lies wholly beyond one of the four bound lines
//     (pruning Strategy 1 applied at the index level).
//
// Survivors still require exact evaluation; the engine filters them by
// their true qualification probability.
func (ix *Index) ThresholdSearch(search, expanded geom.Rect, qp float64, visit func(id uncertain.ID) bool) error {
	_, err := ix.ThresholdSearchCounted(search, expanded, qp, visit)
	return err
}

// ThresholdSearchCounted is ThresholdSearch returning the node accesses
// this call performed, counted locally for concurrent callers.
func (ix *Index) ThresholdSearchCounted(search, expanded geom.Rect, qp float64, visit func(id uncertain.ID) bool) (int64, error) {
	pi := ix.probIndex(qp)
	prune := func(e rtree.Entry, aux []float64) bool {
		return pi >= 0 && prunedByBounds(e.Rect, aux[4*pi:4*pi+4], expanded)
	}
	return ix.tree.SearchCounted(search, prune, func(e rtree.Entry, aux []float64) bool {
		if pi >= 0 && prunedByBounds(e.Rect, aux[4*pi:4*pi+4], expanded) {
			return true // pruned leaf entry; keep searching
		}
		return visit(uncertain.ID(e.Ref))
	})
}

// ThresholdAdmits reports whether ThresholdSearch(search, expanded, qp)
// over an index holding o would visit o — the search's leaf-level
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
	pi := ix.probIndex(qp)
	if pi < 0 {
		return true
	}
	// The row exists: Insert rejects an object whose catalog lacks an
	// index probability value.
	b, _ := o.Catalog.MaxLE(ix.probs[pi])
	return !prunedByBounds(region, []float64{b.Left, b.Right, b.Bottom, b.Top}, expanded)
}

// prunedByBounds reports whether the overlap of region (an entry MBR)
// with the expanded query lies entirely beyond one of the four bound
// lines [left, right, bottom, top], in which case the probability mass
// reachable by the query is at most the bound's catalog value.
func prunedByBounds(region geom.Rect, bound []float64, expanded geom.Rect) bool {
	reg := region.Intersect(expanded)
	if reg.Empty() {
		return true // no overlap at all: zero qualification probability
	}
	left, right, bottom, top := bound[0], bound[1], bound[2], bound[3]
	return reg.Lo.X >= right || reg.Hi.X <= left ||
		reg.Lo.Y >= top || reg.Hi.Y <= bottom
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
