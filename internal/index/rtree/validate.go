package rtree

import "fmt"

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
//   - all nodes respect their kind's capacity (MaxEntries or
//     LeafMaxEntries), and — when requireMinFill is true — non-root
//     nodes its underflow threshold (dynamically built trees
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
		maxEntries, minEntries := t.cfg.Capacity(n.Leaf)
		if len(n.Entries) > maxEntries {
			return fmt.Errorf("node %d: %d entries exceeds max %d", id, len(n.Entries), maxEntries)
		}
		if requireMinFill && id != t.root && len(n.Entries) < minEntries {
			return fmt.Errorf("node %d: %d entries below min %d", id, len(n.Entries), minEntries)
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
			child, err := t.loadNode(e.Child())
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
			if err := walk(e.Child(), depth+1); err != nil {
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
