package rtree

import "repro/internal/geom"

// Visit receives a matching leaf entry and its auxiliary payload (nil
// for a tree that carries none; valid only during the call); returning
// false stops the search early.
type Visit func(e Entry, aux []float64) bool

// NodePruner inspects an interior entry (its rectangle already
// intersects the query) and its payload, and returns true if the whole
// subtree can be skipped. It is the hook PTI uses for index-level
// probability pruning (§5.3). A nil pruner skips nothing.
type NodePruner func(e Entry, aux []float64) bool

// Search visits every leaf entry whose rectangle intersects q.
func (t *Tree) Search(q geom.Rect, visit func(e Entry) bool) error {
	return t.SearchWithPruner(q, nil, visit)
}

// SearchWithPruner is Search with an additional subtree pruner applied
// to interior entries after the rectangle test.
func (t *Tree) SearchWithPruner(q geom.Rect, prune, visit func(e Entry) bool) error {
	var p NodePruner
	if prune != nil {
		p = func(e Entry, _ []float64) bool { return prune(e) }
	}
	_, err := t.SearchCounted(q, p, func(e Entry, _ []float64) bool { return visit(e) })
	return err
}

// SearchCounted is SearchWithPruner returning the number of node
// accesses this call performed, counted locally so concurrent searches
// each observe their own exact cost (the cumulative Tree counter is
// still advanced, atomically, for whole-run diagnostics). It is the
// search the engine's read path is built on: no shared state is reset
// or sampled around the call.
func (t *Tree) SearchCounted(q geom.Rect, prune NodePruner, visit Visit) (int64, error) {
	if t.size == 0 {
		return 0, nil
	}
	var accesses int64
	_, err := t.searchNode(t.root, q, prune, visit, &accesses)
	t.accesses.Add(accesses)
	return accesses, err
}

func (t *Tree) searchNode(id NodeID, q geom.Rect, prune NodePruner, visit Visit, accesses *int64) (bool, error) {
	*accesses++
	n, err := t.loadNode(id)
	if err != nil {
		return false, err
	}
	// The overlap scan runs over the node's SoA rectangle mirror:
	// four flat float64 slices instead of a 40+ byte Entry stride, so
	// the per-entry test is a branch-light sequential pass. The four
	// comparisons are exactly q.Intersects(e.Rect) — bit-identical
	// results, including NaN/degenerate rectangles (see
	// TestSearchSoABitIdentical).
	rects := n.rectsSoA()
	loX, loY, hiX, hiY := rects.loX, rects.loY, rects.hiX, rects.hiY
	if n.Leaf {
		for i := range n.Entries {
			if !(q.Lo.X <= hiX[i] && loX[i] <= q.Hi.X &&
				q.Lo.Y <= hiY[i] && loY[i] <= q.Hi.Y) {
				continue
			}
			if !visit(n.Entries[i], n.auxAt(i)) {
				return false, nil
			}
		}
		return true, nil
	}
	for i := range n.Entries {
		if !(q.Lo.X <= hiX[i] && loX[i] <= q.Hi.X &&
			q.Lo.Y <= hiY[i] && loY[i] <= q.Hi.Y) {
			continue
		}
		e := n.Entries[i]
		if prune != nil && prune(e, n.auxAt(i)) {
			continue
		}
		cont, err := t.searchNode(e.Child, q, prune, visit, accesses)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// SearchCollect returns the refs of all leaf entries intersecting q, in
// visit order.
func (t *Tree) SearchCollect(q geom.Rect) ([]Ref, error) {
	var out []Ref
	err := t.Search(q, func(e Entry) bool {
		out = append(out, e.Ref)
		return true
	})
	return out, err
}

// Walk visits every node in the tree, top-down, calling fn with the
// node and its level (root level = Height-1, leaves = 0). It is meant
// for diagnostics, validation, and statistics.
func (t *Tree) Walk(fn func(n *Node, level int) error) error {
	return t.walkNode(t.root, t.height-1, fn)
}

func (t *Tree) walkNode(id NodeID, level int, fn func(n *Node, level int) error) error {
	n, err := t.getNode(id)
	if err != nil {
		return err
	}
	if err := fn(n, level); err != nil {
		return err
	}
	if n.Leaf {
		return nil
	}
	for _, e := range n.Entries {
		if err := t.walkNode(e.Child, level-1, fn); err != nil {
			return err
		}
	}
	return nil
}

// Bounds returns the bounding rectangle of all data (Empty if the tree
// is empty).
func (t *Tree) Bounds() (geom.Rect, error) {
	n, err := t.getNode(t.root)
	if err != nil {
		return geom.Rect{}, err
	}
	return n.bounds(), nil
}
