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
// catalog values a 4 KiB node holds 11 entries. Interior nodes hold 11
// wherever the index lives, and so do leaves on a paged node store (the
// paper's disk regime); in memory a leaf holds MemLeafEntries, because
// a leaf record's entry carries no row.
//
// Leaf records. The p-bounds of a uniform-pdf object are a closed form
// of its region (§5.1: l(p) = lo + p·w, uncertain.UniformBound). An
// object whose pdf is the uniform one over its region and whose
// U-catalog holds exactly those rows at the index's values is a leaf
// record (IsLeafRecord): its leaf entry {Rect: region, Ref: id} is the
// whole object. The entry stores no payload row — the tree computes it
// from the rectangle wherever it needs one (rtree.Config.DeriveAux),
// and a search visits it with a nil payload — and LeafObject rebuilds
// the object from the entry. Every other object's entry stores its
// catalog rows. Node pages hold every row either way; a checkpoint's
// leaf pages hold none (rtree.EncodeCellPage), and RestoreRows puts an
// irregular object's rows back from its object.
package pti

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/pdf"
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

// MemLeafEntries is the leaf capacity of an index held in memory
// (rtree.MemNodeStore). A leaf record's entry is a rectangle and an id,
// so a leaf that splits at the page capacity of a 40-float row (11
// entries) spreads a range query over 2.7× the nodes it needs. The
// value was chosen among 44, 64 and 100 on the shard-sized engine: a
// range_ro query reads 53.9, 43.6 and 33.4 nodes (146.5 at 11); live
// heap after a restore is 188, 182 and 177 bytes per object; query and
// update times do not separate them on a noisy 2-CPU box; but every
// write batch copies whole leaves, so its bytes grow with the leaf
// (126, 136 and 150 KB per 16-move batch). 64 reads a fifth fewer nodes
// than 44 for 8 % more write bytes. It is at most
// rtree.CapacityForPage(0), so a leaf fits one checkpoint page as
// (rectangle, id) cells.
const MemLeafEntries = 64

// config builds the rtree configuration for the catalog values probs
// (validated) over store: leaves sized for memory unless store is
// paged, where a node is a 4 KiB page holding every row.
func config(probs []float64, store rtree.NodeStore) rtree.Config {
	leaf := 0
	if _, paged := store.(*rtree.PagedNodeStore); !paged {
		leaf = MemLeafEntries
	}
	return rtree.Config{
		LeafMaxEntries: leaf,
		AuxLen:         AuxLen(len(probs)),
		MergeAux:       mergeAux,
		DeriveAux: func(r geom.Rect, dst []float64) {
			for i, p := range probs {
				b := uncertain.UniformBound(r, p)
				dst[4*i], dst[4*i+1], dst[4*i+2], dst[4*i+3] = b.Left, b.Right, b.Bottom, b.Top
			}
		},
	}
}

// IsLeafRecord reports whether o is a leaf record of the index: its pdf
// is the uniform product over its region, and its U-catalog holds
// exactly the rows uncertain.UniformBound computes from that region at
// the index's values. Rows are compared bit for bit: a catalog restored
// with any other row (even a -0 for a +0) keeps its object out.
func (ix *Index) IsLeafRecord(o *uncertain.Object) bool {
	region, ok := pdf.UniformSupport(o.PDF)
	if !ok {
		return false
	}
	rows := o.Catalog.Bounds()
	if len(rows) != len(ix.probs) {
		return false
	}
	for i, b := range rows {
		if !SameBound(b, uncertain.UniformBound(region, ix.probs[i])) {
			return false
		}
	}
	return true
}

// SameBound reports whether two catalog rows are equal bit for bit.
func SameBound(a, b uncertain.Bound) bool {
	return math.Float64bits(a.P) == math.Float64bits(b.P) &&
		math.Float64bits(a.Left) == math.Float64bits(b.Left) &&
		math.Float64bits(a.Right) == math.Float64bits(b.Right) &&
		math.Float64bits(a.Bottom) == math.Float64bits(b.Bottom) &&
		math.Float64bits(a.Top) == math.Float64bits(b.Top)
}

// LeafObject rebuilds the object the leaf record entry {region, id}
// stands for: the uniform pdf over region, with the catalog of
// uncertain.UniformBound rows at the index's values — equal, field for
// field and bit for bit, to the leaf record that was inserted.
func (ix *Index) LeafObject(id uncertain.ID, region geom.Rect) *uncertain.Object {
	x, y := pdf.UniformOn(region.Lo.X, region.Hi.X), pdf.UniformOn(region.Lo.Y, region.Hi.Y)
	rows := make([]uncertain.Bound, len(ix.probs))
	for i, p := range ix.probs {
		rows[i] = uncertain.UniformBound(region, p)
	}
	return &uncertain.Object{ID: id, PDF: pdf.NewProduct(&x, &y), Catalog: uncertain.RestoreCatalog(rows)}
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
// objects it is an empty index. A leaf record's entry stores no row.
func BulkLoad(store rtree.NodeStore, probs []float64, objs []*uncertain.Object) (*Index, error) {
	ps, err := validateProbs(probs)
	if err != nil {
		return nil, err
	}
	ix := &Index{probs: ps}
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{Rect: o.Region(), Ref: rtree.Ref(o.ID)}
		if !ix.IsLeafRecord(o) {
			if items[i].Aux, err = encodeBounds(o, ps); err != nil {
				return nil, err
			}
		}
	}
	if ix.tree, err = rtree.BulkLoad(store, config(ps, store), items); err != nil {
		return nil, err
	}
	return ix, nil
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

// Insert adds an uncertain object — a leaf record as its rectangle and
// id alone, any other object with its catalog rows — and reports
// whether it is a leaf record.
func (ix *Index) Insert(o *uncertain.Object) (record bool, err error) {
	var aux []float64
	if record = ix.IsLeafRecord(o); !record {
		if aux, err = encodeBounds(o, ix.probs); err != nil {
			return false, err
		}
	}
	return record, ix.tree.Insert(o.Region(), rtree.Ref(o.ID), aux)
}

// Delete removes the entry of the object with the given region and
// id, reporting whether it was found.
func (ix *Index) Delete(region geom.Rect, id uncertain.ID) (bool, error) {
	return ix.tree.Delete(region, rtree.Ref(id))
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

// RangeLeavesCounted visits every leaf entry whose rectangle
// intersects q (no probability pruning) — an object's region and id —
// with its stored bound payload (nil for a leaf record), and returns
// the node accesses this call performed. The count is local to the
// call, so concurrent searches each observe their own exact I/O cost.
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
// its stored payload (nil for a leaf record). The caller decides the
// entry with BoundPrunes on its M-bound row (see MRow and LeafBound)
// and evaluates the survivors exactly. It returns the node accesses
// this call performed, counted locally for concurrent callers.
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

// RowsMatch reports whether the leaf entry e, visited with payload aux,
// carries o's rows: its catalog rows at the index's values or — o nil,
// a leaf record — the rows computed from e's rectangle, bit for bit.
func (ix *Index) RowsMatch(e rtree.Entry, aux []float64, o *uncertain.Object) bool {
	for i, p := range ix.probs {
		want := uncertain.UniformBound(e.Rect, p)
		if o != nil {
			b, ok := o.Catalog.MaxLE(p)
			if !ok || b.P != p {
				return false
			}
			want = b
		}
		if !SameBound(LeafBound(e, aux, i, p), want) {
			return false
		}
	}
	return true
}

// LeafBound is StoredRow for a leaf entry a search visits with payload
// aux: a leaf record's entry, visited with none, has the row computed
// from its rectangle.
func LeafBound(e rtree.Entry, aux []float64, row int, p float64) uncertain.Bound {
	if aux == nil {
		return uncertain.UniformBound(e.Rect, p)
	}
	return StoredRow(aux, row, p)
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

// Restore rebuilds a sealed index handle from count checkpointed nodes
// (see rtree.Restore) — the checkpoint loader's constructor. probs must
// be the catalog the nodes were built with (their interior payloads
// carry AuxLen(len(probs)) floats per entry). A leaf row that is a leaf
// record's is dropped as it arrives; an irregular object's entry that
// arrives without its rows gets them from RestoreRows.
func Restore(store rtree.NodeStore, probs []float64, count int, node func(rtree.NodeID) (*rtree.Node, error),
	root rtree.NodeID, height, size int) (*Index, error) {
	ps, err := validateProbs(probs)
	if err != nil {
		return nil, err
	}
	tr, err := rtree.Restore(store, config(ps, store), count, node, root, height, size)
	if err != nil {
		return nil, err
	}
	return &Index{tree: tr, probs: ps}, nil
}

// RestoreRows gives every leaf entry that stores no row and whose
// object irregular returns (non-nil: the object is not a leaf record)
// that object's catalog rows, as Insert stores them. It runs on a
// restored index before it is published, once, when the index's leaf
// pages held no rows.
func (ix *Index) RestoreRows(irregular func(uncertain.ID) *uncertain.Object) error {
	store := ix.tree.Store()
	return ix.tree.Walk(func(n *rtree.Node, _ int) error {
		if !n.Leaf {
			return nil
		}
		changed := false
		for i, e := range n.Entries {
			o := irregular(uncertain.ID(e.Ref))
			if o == nil || n.Aux != nil && n.Aux[i] != nil {
				continue
			}
			row, err := encodeBounds(o, ix.probs)
			if err != nil {
				return err
			}
			if n.Aux == nil {
				n.Aux = make([][]float64, len(n.Entries))
			}
			n.Aux[i], changed = row, true
		}
		if !changed {
			return nil
		}
		return store.Update(n)
	})
}
