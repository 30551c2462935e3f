package rtree

import (
	"fmt"

	"repro/internal/geom"
)

// Visit receives a matching leaf entry and its auxiliary payload (nil
// for a tree that carries none, and for an entry that stores none — see
// Config.DeriveAux; valid only during the call); returning false stops
// the search early.
type Visit func(e Entry, aux []float64) bool

// NodePruner inspects an interior entry (its rectangle already
// intersects the query) and its payload, and returns true if the whole
// subtree can be skipped. It is the hook PTI uses for index-level
// probability pruning (§5.3). A nil pruner skips nothing.
type NodePruner func(e Entry, aux []float64) bool

// SearchCounted visits every leaf entry whose rectangle intersects q,
// skipping the subtrees prune rejects, and returns the number of node
// accesses this call performed. The count is local to the call, so
// concurrent searches each observe their own exact cost without
// touching shared state.
func (t *Tree) SearchCounted(q geom.Rect, prune NodePruner, visit Visit) (int64, error) {
	if t.size == 0 {
		return 0, nil
	}
	var accesses int64
	_, err := t.searchNode(t.root, q, prune, visit, &accesses)
	return accesses, err
}

func (t *Tree) searchNode(id NodeID, q geom.Rect, prune NodePruner, visit Visit, accesses *int64) (bool, error) {
	*accesses++
	n, err := t.loadNode(id)
	if err != nil {
		return false, err
	}
	if n.Leaf {
		for i := range n.Entries {
			e := &n.Entries[i]
			if !q.Intersects(e.Rect) {
				continue
			}
			if !visit(*e, n.auxAt(i)) {
				return false, nil
			}
		}
		return true, nil
	}
	for i := range n.Entries {
		e := &n.Entries[i]
		if !q.Intersects(e.Rect) {
			continue
		}
		if prune != nil && prune(*e, n.auxAt(i)) {
			continue
		}
		cont, err := t.searchNode(e.Child(), q, prune, visit, accesses)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// Walk visits every node in the tree, top-down, calling fn with the
// node and its level (root level = Height-1, leaves = 0). It is meant
// for diagnostics, validation, and statistics.
func (t *Tree) Walk(fn func(n *Node, level int) error) error {
	return t.walkNode(t.root, t.height-1, fn)
}

func (t *Tree) walkNode(id NodeID, level int, fn func(n *Node, level int) error) error {
	if level < 0 {
		return fmt.Errorf("rtree: node %d lies below the leaf level", id)
	}
	n, err := t.loadNode(id)
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
		if err := t.walkNode(e.Child(), level-1, fn); err != nil {
			return err
		}
	}
	return nil
}
