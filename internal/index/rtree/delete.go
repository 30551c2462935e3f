package rtree

import (
	"fmt"

	"repro/internal/geom"
)

// Delete removes one entry matching (r, ref) exactly. It reports
// whether an entry was found and removed. Underflowing nodes are
// dissolved and their entries reinserted (Guttman's CondenseTree).
// Under copy-on-write the touched path is copied, never mutated in
// place; dissolved shared nodes are retired, not freed.
func (t *Tree) Delete(r geom.Rect, ref Ref) (bool, error) {
	path := make([]pathStep, t.height)
	found, err := t.findLeaf(t.root, -1, r, ref, path)
	if err != nil || !found {
		return false, err
	}
	leaf, err := t.writable(path[len(path)-1].node)
	if err != nil {
		return false, err
	}
	path[len(path)-1].node = leaf
	d := departure{moved: true, gone: true}
	for i, e := range leaf.Entries {
		if e.Ref == ref && e.Rect.ApproxEqual(r) {
			d.was = e.Rect
			if t.cfg.AuxLen > 0 {
				d.wasAux = t.rowAt(leaf, i, t.rows().gone)
			}
			leaf.removeEntry(i)
			break
		}
	}
	if err := t.storeNode(leaf); err != nil {
		return false, err
	}
	if err := t.condenseTree(path, &d); err != nil {
		return false, err
	}
	t.size--
	return true, nil
}

// findLeaf locates the leaf containing the (r, ref) entry below node
// id, which its parent reaches through entry entryIdx, and fills path
// — one step per level, this node's first — with the route to it.
func (t *Tree) findLeaf(id NodeID, entryIdx int, r geom.Rect, ref Ref, path []pathStep) (bool, error) {
	if len(path) == 0 {
		return false, fmt.Errorf("rtree: node %d lies below the tree's height %d", id, t.height)
	}
	n, err := t.loadNode(id)
	if err != nil {
		return false, err
	}
	path[0] = pathStep{node: n, entryIdx: entryIdx}
	if n.Leaf {
		for _, e := range n.Entries {
			if e.Ref == ref && e.Rect.ApproxEqual(r) {
				return true, nil
			}
		}
		return false, nil
	}
	for i, e := range n.Entries {
		if !e.Rect.ContainsRect(r) {
			continue
		}
		found, err := t.findLeaf(e.Child(), i, r, ref, path[1:])
		if err != nil || found {
			return found, err
		}
	}
	return false, nil
}

// orphan is the contents of a dissolved node — entries and their
// payload rows — tagged with the level they belong to.
type orphan struct {
	entries []Entry
	aux     [][]float64
	level   int
}

// departure is what a delete walk carries from one level to the next:
// the one entry of the node below that no longer has the value its
// parent's envelope was computed over. was is that value; now is the
// value it has instead, unless — gone — it has left the node (removed,
// or its child dissolved). moved false means the entry kept its value,
// so no envelope above can differ.
type departure struct {
	moved, gone    bool
	was, now       geom.Rect
	wasAux, nowAux []float64
}

// heldExtreme reports whether an envelope coordinate env may have been
// set by the member that went from was to now: not if the member kept
// its value there, and not if was lies strictly inside env, because
// then another member — still present — holds the extreme. (Written so
// that NaN and a ±0 pair fall on the recompute side.)
func heldExtreme(env, was, now float64, gone bool) bool {
	if !gone && sameBits(was, now) {
		return false
	}
	return !(was < env || was > env)
}

// refreshEnvelope brings parent's entry idx, the envelope of node n, up
// to date after the change d to one of n's entries, and rewrites d as
// the change that made to the parent entry. The rectangle and the
// payload are each recomputed from n's entries only if the departed
// value held one of their extremes.
func (t *Tree) refreshEnvelope(parent *Node, idx int, n *Node, d *departure) {
	pe := &parent.Entries[idx]
	row := parent.auxAt(idx)

	rectStale := heldExtreme(pe.Rect.Lo.X, d.was.Lo.X, d.now.Lo.X, d.gone) ||
		heldExtreme(pe.Rect.Lo.Y, d.was.Lo.Y, d.now.Lo.Y, d.gone) ||
		heldExtreme(pe.Rect.Hi.X, d.was.Hi.X, d.now.Hi.X, d.gone) ||
		heldExtreme(pe.Rect.Hi.Y, d.was.Hi.Y, d.now.Hi.Y, d.gone)
	nowAux := d.nowAux
	if d.gone {
		nowAux = d.wasAux // ignored; there is no present value
	}
	auxStale := false
	for j, env := range row {
		if heldExtreme(env, d.wasAux[j], nowAux[j], d.gone) {
			auxStale = true
			break
		}
	}
	if !rectStale && !auxStale {
		d.moved = false
		return
	}
	d.gone = false
	d.was, d.now = pe.Rect, pe.Rect
	d.wasAux, d.nowAux = row, row
	if rectStale {
		pe.Rect = n.bounds()
		d.now = pe.Rect
	}
	if auxStale {
		parent.Aux[idx] = t.auxEnvelope(n, t.rows().entry)
		d.nowAux = parent.Aux[idx]
	}
}

// condenseTree walks the deletion path bottom-up: underflowing
// non-root nodes are removed (their entries queued for reinsertion)
// and surviving ancestors get their envelopes brought up to date — with
// parents made writable and repointed at their child's current id,
// since copy-on-write may have moved it. d describes the entry the
// caller removed from the deepest node; an envelope is recomputed only
// where refreshEnvelope finds it can have shrunk, and once a level
// comes out unchanged the levels above are only repointed. Finally the
// orphaned entries are reinserted at their original levels and a root
// with a single child is collapsed.
func (t *Tree) condenseTree(path []pathStep, d *departure) error {
	var orphans []orphan
	for i := len(path) - 1; i > 0; i-- {
		n, idx := path[i].node, path[i].entryIdx
		parent, err := t.writable(path[i-1].node)
		if err != nil {
			return err
		}
		path[i-1].node = parent
		level := t.height - 1 - i // path index i corresponds to level (height-1-i)
		if _, minEntries := t.cfg.Capacity(n.Leaf); len(n.Entries) < minEntries {
			// Dissolve n: remove its parent entry and queue contents.
			// What leaves the parent is the entry as it stood, which
			// is what the envelopes above were computed over.
			d.moved, d.gone = true, true
			d.was, d.wasAux = parent.Entries[idx].Rect, parent.auxAt(idx)
			parent.removeEntry(idx)
			// Later path steps recorded entry indexes into nodes, not
			// this parent, so no fix-up is needed; earlier steps are
			// ancestors processed after this one.
			if len(n.Entries) > 0 {
				orphans = append(orphans, orphan{entries: n.Entries, aux: n.Aux, level: level})
			}
			if err := t.freeNode(n.ID); err != nil {
				return err
			}
		} else {
			parent.Entries[idx].SetChild(n.ID)
			if d.moved {
				t.refreshEnvelope(parent, idx, n, d)
			}
		}
		if err := t.storeNode(parent); err != nil {
			return err
		}
	}
	// The root may have been path-copied; reinsertions below must
	// descend from the current version's root.
	t.root = path[0].node.ID

	// Reinsert orphans at their recorded levels, deepest first so that
	// the tree height cannot change underneath queued higher-level
	// entries.
	for i := len(orphans) - 1; i >= 0; i-- {
		o := orphans[i]
		for k, e := range o.entries {
			var row []float64
			if o.aux != nil {
				row = o.aux[k]
			}
			if err := t.insertAtLevel(e, row, o.level); err != nil {
				return fmt.Errorf("rtree: reinsert at level %d: %w", o.level, err)
			}
		}
	}

	// Collapse a non-leaf root with a single child.
	for {
		root, err := t.loadNode(t.root)
		if err != nil {
			return err
		}
		if root.Leaf || len(root.Entries) != 1 {
			return nil
		}
		child := root.Entries[0].Child()
		if err := t.freeNode(root.ID); err != nil {
			return err
		}
		t.root = child
		t.height--
	}
}
