// Package rtree implements a dynamic R-tree (Guttman 1984) with
// quadratic splits, deletion with tree condensation, and STR bulk
// loading, over pluggable node storage (in-memory or 4 KiB pages
// through a buffer pool).
//
// The tree reproduces the index regime of the paper's experiments
// (§6.1: R-tree with 4 KiB nodes from the Spatial Index Library).
// Entries may carry a fixed-length auxiliary float64 payload that the
// tree aggregates bottom-up with a caller-supplied merge function; the
// PTI (Probability Threshold Index, §5.3) is built on exactly this
// hook, storing per-catalog-value bound rectangles in interior nodes.
//
// Node accesses (the paper's I/O metric) are counted per call: every
// search returns the accesses it performed.
//
// Envelope maintenance. An interior entry is the envelope of its child:
// the union of the child's entry rectangles and the merge of their
// payloads. Both are element-wise minima and maxima, which round
// nothing, so an envelope has exactly one value whatever order it is
// computed in — and a mutation only pays for the part of it that can
// have moved (insert.go, delete.go):
//
//   - an insert that splits nothing grows each ancestor entry by the
//     inserted entry alone (one Rect.Union, one MergeAux per level): the
//     child kept every entry it had, so min(old envelope, new entry) is
//     the minimum over the new membership — and where that moves
//     nothing, the ancestor keeps its payload row;
//   - a delete recomputes an ancestor entry only on the coordinates the
//     departed value held the extreme of — a value strictly inside the
//     envelope leaves it to another entry, which is still there — and
//     one level up the same test is applied to the child envelope that
//     just shrank; once a level comes out unchanged nothing above it can
//     move and only child pointers are rewritten;
//   - where a node's membership was rebuilt — the two halves of a
//     split, a new root, bulk load — the envelope is recomputed from
//     all of the node's entries (entryEnvelope). A dissolved node needs
//     none: its parent entry leaves as a delete does, and its entries
//     are reinserted as inserts.
//
// The result is bit-identical to recomputing every envelope on the path
// from scratch, which is what CheckInvariants compares against,
// Float64bits for Float64bits. A leaf entry that stores no payload row
// (Config.DeriveAux) takes part in all of it with the row computed from
// its rectangle, which is the row it would have stored.
package rtree

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/storage"
)

// Ref identifies an object stored in a leaf entry.
type Ref int64

// NodeID identifies a node within a NodeStore. For paged stores it is
// the page id.
type NodeID uint32

// InvalidNode is the null node id.
const InvalidNode = NodeID(0xFFFFFFFF)

// Entry is one slot of a node: a rectangle plus one word that is an
// object reference in a leaf and the child's node id in an interior
// node (Child, SetChild) — 40 bytes, the cell a node page stores. It
// holds no pointer, so a node's entry array is memory the garbage
// collector never scans and a copy-on-write path copy of it is a flat
// memmove. The entry's auxiliary payload lives beside it in its node
// (Node.Aux).
type Entry struct {
	Rect geom.Rect
	Ref  Ref
}

// Child returns the node an interior entry points at.
func (e Entry) Child() NodeID { return NodeID(e.Ref) }

// SetChild points an interior entry at node id.
func (e *Entry) SetChild(id NodeID) { e.Ref = Ref(id) }

// childEntry returns the interior entry for child id with envelope r.
func childEntry(r geom.Rect, id NodeID) Entry { return Entry{Rect: r, Ref: Ref(id)} }

// Node is an R-tree node. Nodes are value-owned by callers of
// NodeStore.Get; mutations must be persisted with NodeStore.Update.
type Node struct {
	ID      NodeID
	Leaf    bool
	Entries []Entry
	// Aux holds one payload row of Config.AuxLen values per entry
	// (Aux[i] belongs to Entries[i]); nil when AuxLen is 0. A row is
	// never written once it is in a node: versions of a node share
	// their rows, and an envelope that changes is a new row. In a tree
	// whose Config.DeriveAux computes a leaf entry's row from its
	// rectangle, a leaf row may be nil — the entry stores none — and a
	// leaf whose rows are all nil may have a nil Aux; interior rows are
	// always stored.
	Aux [][]float64
}

// bounds returns the union of the node's entry rectangles.
func (n *Node) bounds() geom.Rect {
	var r geom.Rect
	if len(n.Entries) == 0 {
		return geom.Rect{Lo: geom.Pt(1, 1), Hi: geom.Pt(-1, -1)} // Empty
	}
	r = n.Entries[0].Rect
	for _, e := range n.Entries[1:] {
		r = r.Union(e.Rect)
	}
	return r
}

// newAuxRows returns count payload rows of auxLen values cut from one
// block, so a node built in one go (bulk load, page decode) is three
// heap objects however many entries it has; nil when auxLen is 0.
func newAuxRows(count, auxLen int) [][]float64 {
	if auxLen == 0 {
		return nil
	}
	rows := make([][]float64, count)
	block := make([]float64, count*auxLen)
	for i := range rows {
		rows[i] = block[i*auxLen : (i+1)*auxLen : (i+1)*auxLen]
	}
	return rows
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// auxAt returns entry i's payload row, nil for a tree that carries
// none.
func (n *Node) auxAt(i int) []float64 {
	if n.Aux == nil {
		return nil
	}
	return n.Aux[i]
}

// appendEntry adds e as the node's last entry, with its payload row
// (nil for a tree that carries none, or a derived leaf row). A node
// whose rows were all absent keeps a nil Aux until a stored row
// arrives.
func (n *Node) appendEntry(e Entry, row []float64) {
	if n.Aux != nil {
		n.Aux = append(n.Aux, row)
	} else if row != nil {
		n.Aux = make([][]float64, len(n.Entries), cap(n.Entries)+1)
		n.Aux = append(n.Aux, row)
	}
	n.Entries = append(n.Entries, e)
}

// removeEntry deletes entry i and its payload row, keeping the order of
// the rest.
func (n *Node) removeEntry(i int) {
	n.Entries = slices.Delete(n.Entries, i, i+1)
	if n.Aux != nil {
		n.Aux = slices.Delete(n.Aux, i, i+1)
	}
}

// MergeAuxFunc folds entry payload src into dst in place. dst and src
// have length Config.AuxLen. It must be commutative and associative in
// the usual envelope sense (e.g. element-wise min/max).
type MergeAuxFunc func(dst, src []float64)

// DeriveAuxFunc writes into dst (length Config.AuxLen) the payload row
// of a leaf entry with rectangle r that stores none. It must be a pure
// function of r.
type DeriveAuxFunc func(r geom.Rect, dst []float64)

// Config fixes the shape of a tree.
type Config struct {
	// MaxEntries is the node capacity M. Zero derives the capacity
	// from the 4 KiB page size and AuxLen (see CapacityForPage).
	MaxEntries int
	// MinEntries is the underflow threshold m (2 <= m <= M/2).
	// Zero means 40% of MaxEntries, the classic choice.
	MinEntries int
	// LeafMaxEntries is a leaf's capacity where it differs from an
	// interior node's: a leaf entry whose row DeriveAux computes takes
	// 40 bytes where an interior entry takes 40 + 8·AuxLen. Zero means
	// MaxEntries. A leaf's underflow threshold is then MinEntries, or
	// 40% of LeafMaxEntries when that is set (see Capacity).
	LeafMaxEntries int
	// leafMinEntries is a leaf's underflow threshold, set by normalize.
	leafMinEntries int
	// AuxLen is the per-entry auxiliary payload length (0 = none).
	AuxLen int
	// MergeAux aggregates child payloads into parent entries. Required
	// when AuxLen > 0.
	MergeAux MergeAuxFunc
	// DeriveAux, when set, lets a leaf entry store no payload row: the
	// tree computes the row from the entry's rectangle wherever it
	// needs one — envelope maintenance, CheckInvariants, page encoding
	// — into per-tree scratch, and a search visits such an entry with
	// a nil payload. Nil means every leaf entry stores its row.
	DeriveAux DeriveAuxFunc
}

// nodeHeaderBytes is the serialized node header size: flags byte,
// entry count uint16, and a reserved byte, plus a 4-byte checksum seed.
const nodeHeaderBytes = 8

// CapacityForPage returns the number of entries of the given aux
// length that fit a 4 KiB page.
func CapacityForPage(auxLen int) int {
	return (storage.PageSize - nodeHeaderBytes) / (32 + 8 + 8*auxLen)
}

// normalize fills defaults and validates.
func (c Config) normalize() (Config, error) {
	if c.AuxLen < 0 {
		return c, fmt.Errorf("rtree: negative AuxLen %d", c.AuxLen)
	}
	if c.AuxLen > 0 && c.MergeAux == nil {
		return c, errors.New("rtree: AuxLen > 0 requires MergeAux")
	}
	if c.AuxLen == 0 && c.DeriveAux != nil {
		return c, errors.New("rtree: DeriveAux requires AuxLen > 0")
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = CapacityForPage(c.AuxLen)
	}
	var err error
	if c.MaxEntries, c.MinEntries, err = bounds("", c.MaxEntries, c.MinEntries); err != nil {
		return c, err
	}
	if c.LeafMaxEntries == 0 {
		c.LeafMaxEntries, c.leafMinEntries = c.MaxEntries, c.MinEntries
		return c, nil
	}
	c.LeafMaxEntries, c.leafMinEntries, err = bounds("Leaf", c.LeafMaxEntries, 0)
	return c, err
}

// bounds fills and validates one capacity and its underflow threshold.
func bounds(kind string, maxEntries, minEntries int) (int, int, error) {
	if maxEntries < 4 {
		return 0, 0, fmt.Errorf("rtree: %sMaxEntries %d too small (need >= 4; is AuxLen too large for a page?)", kind, maxEntries)
	}
	if minEntries == 0 {
		minEntries = maxEntries * 2 / 5
	}
	if minEntries < 2 {
		minEntries = 2
	}
	if minEntries > maxEntries/2 {
		return 0, 0, fmt.Errorf("rtree: %sMinEntries %d exceeds %sMaxEntries/2 = %d", kind, minEntries, kind, maxEntries/2)
	}
	return maxEntries, minEntries, nil
}

// Capacity returns the capacity and underflow threshold of a leaf (leaf
// set) or an interior node of a tree with this configuration, as
// Tree.Config returns it.
func (c Config) Capacity(leaf bool) (maxEntries, minEntries int) {
	if leaf {
		return c.LeafMaxEntries, c.leafMinEntries
	}
	return c.MaxEntries, c.MinEntries
}

// Tree is a dynamic R-tree. A given Tree value is not safe for
// concurrent mutation (single writer); concurrent searches
// against a sealed tree are safe, including over paged node stores
// (the buffer pool is internally synchronized), and — through the
// copy-on-write machinery (CloneCOW/Seal, cow.go) — remain safe while
// a writer builds the next version on a clone: mutations only ever
// write freshly allocated nodes that no sealed root references.
// Per-search node-access counts are returned by SearchCounted, so
// concurrent searches measure their own cost without touching shared
// state.
type Tree struct {
	store  NodeStore
	cfg    Config
	root   NodeID
	height int // number of levels; leaves are level 0, root is height-1
	size   int
	// cow, when non-nil, marks an unsealed copy-on-write version:
	// mutations path-copy shared nodes instead of updating in place
	// (see cow.go). Sealed trees and legacy in-place trees carry nil.
	cow *cowState
	// work holds the writer's scratch rows, allocated on the handle's
	// first use (one writer per handle); see rows.
	work *workRows
}

// workRows are a writing handle's scratch payload rows: merge is
// grownRow's merge buffer, added the inserted entry's row and gone the
// deleted entry's when DeriveAux computes them, and entry the rows
// auxEnvelope derives one at a time. None is ever stored in a node.
type workRows struct {
	merge, added, gone, entry []float64
}

// rows returns the handle's scratch rows, allocating them — one block
// — on first use.
func (t *Tree) rows() *workRows {
	if t.work == nil {
		n := t.cfg.AuxLen
		b := make([]float64, 4*n)
		t.work = &workRows{merge: b[:n:n], added: b[n : 2*n : 2*n], gone: b[2*n : 3*n : 3*n], entry: b[3*n:]}
	}
	return t.work
}

// rowAt returns entry i's payload row: the stored one, or — for a leaf
// entry that stores none — the row DeriveAux computes from its
// rectangle, written into buf. Nil for a tree that carries none.
func (t *Tree) rowAt(n *Node, i int, buf []float64) []float64 {
	if row := n.auxAt(i); row != nil || t.cfg.AuxLen == 0 {
		return row
	}
	t.cfg.DeriveAux(n.Entries[i].Rect, buf)
	return buf
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a leaf-only tree).
func (t *Tree) Height() int { return t.height }

// Config returns the tree's effective configuration.
func (t *Tree) Config() Config { return t.cfg }

// Store returns the tree's node store. The metrics layer type-asserts
// it against *PagedNodeStore to reach the buffer pool behind a paged
// tree; in-memory trees expose nothing further.
func (t *Tree) Store() NodeStore { return t.store }

// loadNode fetches a node, consulting the unsealed version's write
// cache first: a node updated during the current copy-on-write phase
// lives there until FlushCOW/Seal persists it, so the store may not
// have its latest (or, for paged stores, any) contents yet.
func (t *Tree) loadNode(id NodeID) (*Node, error) {
	if t.cow != nil {
		if n := t.cow.fresh[id]; n != nil {
			return n, nil
		}
	}
	return t.store.Get(id)
}

// ErrForeignNode is returned when an unsealed copy-on-write version is
// asked to write a node it did not allocate: the node belongs to a
// published version that readers may be traversing, so the write is
// refused rather than performed.
var ErrForeignNode = errors.New("rtree: copy-on-write version does not own the node")

// storeNode persists a mutated node. During a copy-on-write phase the
// node must be fresh (private to this unsealed version; every mutation
// reaches its nodes through writable) and the write is only recorded in
// the version's write cache — a batch that updates the same node N
// times pays one store write at FlushCOW/Seal, not N; for paged stores
// that means one page encode per touched node per batch. Outside a COW
// phase (legacy in-place trees, construction) the write goes straight
// through.
func (t *Tree) storeNode(n *Node) error {
	if t.cow == nil {
		return t.store.Update(n)
	}
	if _, fresh := t.cow.fresh[n.ID]; !fresh {
		return fmt.Errorf("%w: node %d", ErrForeignNode, n.ID)
	}
	t.cow.fresh[n.ID] = n
	return nil
}

// entryEnvelope recomputes the parent-entry view of node n from all of
// its entries: their bounding rectangle and, in a new row, their merged
// payload (nil for a tree that carries none, or an empty node). It is
// the from-scratch form, used where a node's membership was rebuilt
// (see the package comment).
func (t *Tree) entryEnvelope(n *Node) (geom.Rect, []float64) {
	if t.cfg.AuxLen == 0 {
		return n.bounds(), nil
	}
	return n.bounds(), t.auxEnvelope(n, t.rows().entry)
}

// auxEnvelope is the payload half of entryEnvelope; buf holds each
// derived row while it is merged.
func (t *Tree) auxEnvelope(n *Node, buf []float64) []float64 {
	if t.cfg.AuxLen == 0 || len(n.Entries) == 0 {
		return nil
	}
	row := slices.Clone(t.rowAt(n, 0, buf))
	for i := 1; i < len(n.Entries); i++ {
		t.cfg.MergeAux(row, t.rowAt(n, i, buf))
	}
	return row
}

// grownRow returns the envelope row merged with one more payload: row
// itself when the payload lies inside it, a new row otherwise.
func (t *Tree) grownRow(row, added []float64) []float64 {
	merged := t.rows().merge
	copy(merged, row)
	t.cfg.MergeAux(merged, added)
	for j, v := range merged {
		if !sameBits(v, row[j]) {
			return slices.Clone(merged)
		}
	}
	return row
}
