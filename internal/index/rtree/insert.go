package rtree

import (
	"fmt"
	"slices"

	"repro/internal/geom"
)

// Insert adds an entry with the given rectangle, reference and
// (optionally) auxiliary payload. aux must have length Config.AuxLen
// (nil when AuxLen is 0); it is copied. In a tree with a DeriveAux a
// nil aux stores no row: the entry's row is the one DeriveAux computes
// from r.
func (t *Tree) Insert(r geom.Rect, ref Ref, aux []float64) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if len(aux) != t.cfg.AuxLen && (aux != nil || t.cfg.DeriveAux == nil) {
		return fmt.Errorf("rtree: aux length %d, want %d", len(aux), t.cfg.AuxLen)
	}
	var row []float64
	if aux != nil && t.cfg.AuxLen > 0 {
		row = slices.Clone(aux)
	}
	if err := t.insertAtLevel(Entry{Rect: r, Ref: ref}, row, 0); err != nil {
		return err
	}
	t.size++
	return nil
}

// insertAtLevel places e, with payload row aux (the tree keeps it; nil
// for a derived leaf row), at the given level (0 = leaves). Levels
// above 0 are used when reinserting orphaned subtrees during deletion.
// Under copy-on-write, every node mutated along the descent path is
// first made writable (path-copied on first touch); adjustTree then
// repoints each parent at its child's current id, and the root id is
// refreshed last.
func (t *Tree) insertAtLevel(e Entry, aux []float64, level int) error {
	path, err := t.chooseNode(e.Rect, level)
	if err != nil {
		return err
	}
	n, err := t.writable(path[len(path)-1].node)
	if err != nil {
		return err
	}
	path[len(path)-1].node = n
	n.appendEntry(e, aux)
	added := aux
	if added == nil && t.cfg.AuxLen > 0 {
		added = t.rows().added
		t.cfg.DeriveAux(e.Rect, added)
	}

	var splitNew *Node
	if maxEntries, _ := t.cfg.Capacity(n.Leaf); len(n.Entries) > maxEntries {
		splitNew, err = t.splitNode(n)
		if err != nil {
			return err
		}
	} else if err := t.storeNode(n); err != nil {
		return err
	}
	return t.adjustTree(path, e.Rect, added, splitNew)
}

// pathStep records one node on the descent path and the index of the
// entry taken in its parent (entryIdx is -1 for the root).
type pathStep struct {
	node     *Node
	entryIdx int
}

// chooseNode descends from the root to the node at targetLevel whose
// entry needs the least enlargement to include r (ties: smallest
// area), returning the full descent path.
func (t *Tree) chooseNode(r geom.Rect, targetLevel int) ([]pathStep, error) {
	if targetLevel >= t.height {
		return nil, fmt.Errorf("rtree: level %d exceeds height %d", targetLevel, t.height)
	}
	n, err := t.loadNode(t.root)
	if err != nil {
		return nil, err
	}
	path := append(make([]pathStep, 0, t.height), pathStep{node: n, entryIdx: -1})
	level := t.height - 1
	for level > targetLevel {
		best := -1
		var bestEnl, bestArea float64
		for i, e := range n.Entries {
			enl := e.Rect.Enlargement(r)
			area := e.Rect.Area()
			if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("rtree: interior node %d has no entries", n.ID)
		}
		child, err := t.loadNode(n.Entries[best].Child())
		if err != nil {
			return nil, err
		}
		path = append(path, pathStep{node: child, entryIdx: best})
		n = child
		level--
	}
	return path, nil
}

// adjustTree walks the path bottom-up after the entry (added, addedAux)
// went in below its deepest node, bringing parent envelopes up to date
// and propagating splits. splitNew is the sibling created by splitting
// the deepest node on the path, or nil. Parents are made writable
// before mutation and repointed at their child's current id — under
// copy-on-write the child may have been path-copied to a new id.
//
// A child that did not split still holds every entry its parent entry
// was the envelope of, plus whatever arrived below it — and all that
// arrived is the added entry, wherever splits further down put it — so
// the parent entry grows by the added entry alone. A child that did
// split lost entries to its sibling; both envelopes are recomputed.
func (t *Tree) adjustTree(path []pathStep, added geom.Rect, addedAux []float64, splitNew *Node) error {
	for i := len(path) - 1; i > 0; i-- {
		child, idx := path[i].node, path[i].entryIdx
		parent, err := t.writable(path[i-1].node)
		if err != nil {
			return err
		}
		path[i-1].node = parent

		parent.Entries[idx].SetChild(child.ID)
		if splitNew == nil {
			parent.Entries[idx].Rect = parent.Entries[idx].Rect.Union(added)
			if addedAux != nil {
				parent.Aux[idx] = t.grownRow(parent.Aux[idx], addedAux)
			}
		} else {
			r, row := t.entryEnvelope(child)
			parent.Entries[idx].Rect = r
			if row != nil {
				parent.Aux[idx] = row
			}
			t.appendChild(parent, splitNew)
			splitNew = nil
		}
		if len(parent.Entries) > t.cfg.MaxEntries {
			splitNew, err = t.splitNode(parent)
			if err != nil {
				return err
			}
		} else if err := t.storeNode(parent); err != nil {
			return err
		}
	}
	if splitNew != nil {
		return t.growRoot(path[0].node, splitNew)
	}
	t.root = path[0].node.ID
	return nil
}

// appendChild adds an entry for child, with its envelope computed from
// scratch, to the interior node parent.
func (t *Tree) appendChild(parent, child *Node) {
	r, row := t.entryEnvelope(child)
	parent.appendEntry(childEntry(r, child.ID), row)
}

// growRoot installs a new root above old and sibling after a root
// split.
func (t *Tree) growRoot(old, sibling *Node) error {
	root, err := t.allocNode(false)
	if err != nil {
		return err
	}
	t.appendChild(root, old)
	t.appendChild(root, sibling)
	if err := t.storeNode(root); err != nil {
		return err
	}
	t.root = root.ID
	t.height++
	return nil
}

// splitNode splits an overflowing node in place with Guttman's
// quadratic split and returns the newly allocated sibling. Both nodes
// are persisted.
func (t *Tree) splitNode(n *Node) (*Node, error) {
	entries := n.Entries
	_, minEntries := t.cfg.Capacity(n.Leaf)
	// One scratch block: each entry's area for PickSeeds, then its
	// enlargement of either group's rectangle for PickNext. A group's
	// column changes only when the group takes an entry, so the other
	// column is kept rather than recomputed: the same values, half
	// the work.
	scratch := make([]float64, 2*len(entries))
	seedA, seedB := pickSeeds(entries, scratch[:len(entries)])
	dA, dB := scratch[:len(entries)], scratch[len(entries):]

	// Groups (and the unassigned rest) are lists of positions in
	// n.Entries, so an entry's payload can follow it into its new node.
	groupA := append(make([]int, 0, len(entries)), seedA)
	groupB := append(make([]int, 0, len(entries)), seedB)
	rectA := entries[seedA].Rect
	rectB := entries[seedB].Rect

	rest := make([]int, 0, len(entries)-2)
	for i := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, i)
			dA[i] = rectA.Enlargement(entries[i].Rect)
			dB[i] = rectB.Enlargement(entries[i].Rect)
		}
	}

	for len(rest) > 0 {
		// If one group must take all remaining entries to reach the
		// minimum fill, assign them wholesale.
		if len(groupA)+len(rest) == minEntries {
			for _, i := range rest {
				groupA = append(groupA, i)
				rectA = rectA.Union(entries[i].Rect)
			}
			break
		}
		if len(groupB)+len(rest) == minEntries {
			for _, i := range rest {
				groupB = append(groupB, i)
				rectB = rectB.Union(entries[i].Rect)
			}
			break
		}
		// PickNext: the entry with the strongest preference, or the first
		// remaining one when no preference compares (every one NaN, as an
		// infinite rectangle's enlargements are).
		bestIdx, bestDiff := 0, -1.0
		for k, i := range rest {
			diff := dA[i] - dB[i]
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestIdx, bestDiff = k, diff
			}
		}
		e := rest[bestIdx]
		bestDA, bestDB := dA[e], dB[e]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]

		// Resolve ties by smaller enlargement, then smaller area, then
		// fewer entries.
		toA := bestDA < bestDB
		if bestDA == bestDB {
			if rectA.Area() != rectB.Area() {
				toA = rectA.Area() < rectB.Area()
			} else {
				toA = len(groupA) <= len(groupB)
			}
		}
		if toA {
			groupA = append(groupA, e)
			rectA = rectA.Union(entries[e].Rect)
			for _, i := range rest {
				dA[i] = rectA.Enlargement(entries[i].Rect)
			}
		} else {
			groupB = append(groupB, e)
			rectB = rectB.Union(entries[e].Rect)
			for _, i := range rest {
				dB[i] = rectB.Enlargement(entries[i].Rect)
			}
		}
	}
	return t.finishSplit(n, groupA, groupB)
}

// finishSplit materializes a split: n keeps the entries at positions
// groupA, a fresh sibling takes those at groupB, both persisted. n must
// already be writable (splits only happen to nodes the current mutation
// has touched).
func (t *Tree) finishSplit(n *Node, groupA, groupB []int) (*Node, error) {
	sibling, err := t.allocNode(n.Leaf)
	if err != nil {
		return nil, err
	}
	sibling.Entries, sibling.Aux = t.gather(n, groupB)
	n.Entries, n.Aux = t.gather(n, groupA)
	if err := t.storeNode(n); err != nil {
		return nil, err
	}
	if err := t.storeNode(sibling); err != nil {
		return nil, err
	}
	return sibling, nil
}

// gather copies the entries of n at the given positions, and their
// payload rows, into fresh slices with room for one more entry.
func (t *Tree) gather(n *Node, positions []int) ([]Entry, [][]float64) {
	entries := make([]Entry, len(positions), len(positions)+1)
	var aux [][]float64
	if n.Aux != nil {
		aux = make([][]float64, len(positions), len(positions)+1)
	}
	for k, i := range positions {
		entries[k] = n.Entries[i]
		if aux != nil {
			aux[k] = n.Aux[i]
		}
	}
	return entries, aux
}

// pickSeeds returns the pair of entries wasting the most area if
// grouped together (Guttman's quadratic PickSeeds); area is scratch of
// one value per entry.
func pickSeeds(entries []Entry, area []float64) (int, int) {
	for i, e := range entries {
		area[i] = e.Rect.Area()
	}
	bestA, bestB, bestWaste := 0, 1, -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			u := entries[i].Rect.Union(entries[j].Rect)
			waste := u.Area() - area[i] - area[j]
			if waste > bestWaste {
				bestA, bestB, bestWaste = i, j, waste
			}
		}
	}
	return bestA, bestB
}
