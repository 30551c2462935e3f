package rtree

import (
	"fmt"
	"slices"
)

// CheckInvariants verifies the structural invariants of the tree and
// returns a descriptive error on the first violation. It is intended
// for tests and post-bulk-load sanity checks:
//
//   - every interior entry's rectangle equals the union of its child's
//     entry rectangles (tight envelopes) — bit for bit: an envelope is
//     a minimum or maximum of stored values, which rounds nothing, and
//     a tolerance would hide an incremental-maintenance bug;
//   - when AuxLen > 0, every interior entry's aux payload equals the
//     merge of its child's entry payloads, likewise exactly — a leaf
//     entry that stores no row (Config.DeriveAux) merging the row
//     computed from its rectangle; only leaf entries of a tree with a
//     DeriveAux may store none;
//   - all leaves sit at the same depth, the tree's height below the
//     root (so a corrupt child pointer that loops is an error, not an
//     endless walk);
//   - all nodes respect MaxEntries, and — when requireMinFill is true —
//     non-root nodes respect MinEntries (dynamically built trees
//     guarantee it; STR bulk loading may leave one under-filled tail
//     node per level, so pass false for bulk-loaded trees);
//   - the entry count matches Len().
func (t *Tree) CheckInvariants(requireMinFill bool) error {
	count := 0
	auxLen := t.cfg.AuxLen
	buf := make([]float64, auxLen)
	var walk func(id NodeID, depth int) error
	leafDepth := -1
	walk = func(id NodeID, depth int) error {
		n, err := t.loadNode(id)
		if err != nil {
			return err
		}
		if len(n.Entries) > t.cfg.MaxEntries {
			return fmt.Errorf("node %d: %d entries exceeds max %d", id, len(n.Entries), t.cfg.MaxEntries)
		}
		if requireMinFill && id != t.root && len(n.Entries) < t.cfg.MinEntries {
			return fmt.Errorf("node %d: %d entries below min %d", id, len(n.Entries), t.cfg.MinEntries)
		}
		if auxLen > 0 && (n.Aux != nil || !n.Leaf) && len(n.Aux) != len(n.Entries) {
			return fmt.Errorf("node %d: %d payload rows for %d entries", id, len(n.Aux), len(n.Entries))
		}
		if n.Leaf {
			for i := range n.Entries {
				if auxLen > 0 && n.auxAt(i) == nil && t.cfg.DeriveAux == nil {
					return fmt.Errorf("leaf %d entry %d stores no payload row", id, i)
				}
			}
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("leaf %d at depth %d, expected %d", id, depth, leafDepth)
			}
			if depth != t.height-1 {
				return fmt.Errorf("leaf %d at depth %d, height %d", id, depth, t.height)
			}
			count += len(n.Entries)
			return nil
		}
		if depth >= t.height-1 {
			return fmt.Errorf("interior node %d at depth %d, height %d", id, depth, t.height)
		}
		for i, e := range n.Entries {
			if auxLen > 0 && n.Aux[i] == nil {
				return fmt.Errorf("node %d entry %d stores no payload row", id, i)
			}
			child, err := t.loadNode(e.Child)
			if err != nil {
				return fmt.Errorf("node %d entry %d: %w", id, i, err)
			}
			r, aux := child.bounds(), t.auxEnvelope(child, buf)
			if !sameBits(e.Rect.Lo.X, r.Lo.X) || !sameBits(e.Rect.Lo.Y, r.Lo.Y) ||
				!sameBits(e.Rect.Hi.X, r.Hi.X) || !sameBits(e.Rect.Hi.Y, r.Hi.Y) {
				return fmt.Errorf("node %d entry %d: envelope %v, children union %v", id, i, e.Rect, r)
			}
			for j, have := range n.auxAt(i) {
				if !sameBits(have, aux[j]) {
					return fmt.Errorf("node %d entry %d: aux[%d] = %g, merged %g", id, i, j, have, aux[j])
				}
			}
			if err := walk(e.Child, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("entry count %d != Len() %d", count, t.size)
	}
	return nil
}

// CompactLeaves drops every stored leaf row that equals, bit for bit,
// the row Config.DeriveAux computes from its entry's rectangle — the
// form in which inserts leave such entries. A tree restored from node
// pages, which hold every row, calls it once before it is published.
// A paged store is left as it is: its pages hold every row anyway, and
// a node decoded from one has them all back.
func (t *Tree) CompactLeaves() error {
	if t.cfg.DeriveAux == nil {
		return nil
	}
	if _, paged := t.store.(*PagedNodeStore); paged {
		return nil
	}
	buf := make([]float64, t.cfg.AuxLen)
	return t.Walk(func(n *Node, _ int) error {
		if !n.Leaf || n.Aux == nil {
			return nil
		}
		var kept [][]float64
		for i, row := range n.Aux {
			if row == nil {
				continue
			}
			t.cfg.DeriveAux(n.Entries[i].Rect, buf)
			if slices.EqualFunc(row, buf, sameBits) {
				continue
			}
			if kept == nil {
				kept = make([][]float64, len(n.Entries))
			}
			kept[i] = slices.Clone(row)
		}
		n.Aux = kept
		return t.store.Update(n)
	})
}
