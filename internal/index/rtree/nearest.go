package rtree

import "sync"

// This file implements best-first (branch-and-bound) traversal, the
// primitive behind nearest-neighbor search (Hjaltason & Samet 1999):
// entries are visited in ascending order of a caller-supplied
// priority, and whole subtrees whose lower bound exceeds the caller's
// running cutoff are never read.

// Priority computes the traversal priority of an entry. For a leaf
// entry it is the entry's exact priority; for an interior entry it
// must be a lower bound on the priority of every leaf entry in the
// subtree (so that popping in ascending order never misses a better
// leaf).
type Priority func(e Entry, leaf bool) float64

// BestVisit receives one leaf entry, in ascending priority order,
// together with its priority. It returns the new cutoff — subtrees
// and leaves with priority strictly above it are pruned (the
// traversal also stops as soon as the best remaining priority exceeds
// the cutoff, since later pops only grow) — and whether to continue.
type BestVisit func(e Entry, prio float64) (cutoff float64, cont bool)

// bbEntry is one heap element of the best-first frontier.
type bbEntry struct {
	prio float64
	e    Entry
	leaf bool
}

// bbHeap is the best-first frontier: a binary min-heap on prio with
// typed push and pop, so no element is boxed into an interface. Both
// perform container/heap's sift steps exactly — the same comparisons
// and the same moves, a hole standing in for each swap of the element
// being sifted — so the pop order, ties included, is the one
// container/heap would give.
type bbHeap []bbEntry

// push is heap.Push: append x, then sift it up.
func (h *bbHeap) push(x bbEntry) {
	*h = append(*h, x)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(x.prio < s[i].prio) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = x
}

// pop is heap.Pop: move the last element to the root, sift it down
// over the remaining n-1, and return the old root.
func (h *bbHeap) pop() bbEntry {
	s := *h
	n := len(s) - 1
	top := s[0]
	x := s[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].prio < s[j].prio {
			j = j2
		}
		if !(s[j].prio < x.prio) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = x
	*h = s[:n]
	return top
}

// frontierPool recycles best-first frontiers: a traversal's frontier
// holds every entry pushed and not yet popped — whole nodes' worth of
// entries per expansion — so a fresh one would be regrown on every
// search.
var frontierPool = sync.Pool{New: func() any { return new(bbHeap) }}

// maxPooledFrontier caps the frontier the pool keeps (1 MiB): a rare
// traversal that pushes most of a large tree does not pin its frontier
// for every later one.
const maxPooledFrontier = 1 << 14

func putFrontier(h *bbHeap) {
	if cap(*h) <= maxPooledFrontier {
		frontierPool.Put(h)
	}
}

// BestFirstCounted traverses leaf entries in ascending order of prio,
// pruning subtrees whose lower bound exceeds the running cutoff, and
// returns the number of node accesses the traversal performed —
// counted locally, like SearchCounted, so concurrent traversals each
// observe their own exact cost. cutoff is the initial pruning bound
// (use +Inf for none).
func (t *Tree) BestFirstCounted(prio Priority, cutoff float64, visit BestVisit) (int64, error) {
	if t.size == 0 {
		return 0, nil
	}
	var accesses int64
	h := frontierPool.Get().(*bbHeap)
	defer putFrontier(h)
	// The root pseudo-entry has priority 0 so it is always expanded;
	// real entries get caller priorities from then on.
	*h = append((*h)[:0], bbEntry{prio: 0, e: Entry{Child: t.root}, leaf: false})
	for len(*h) > 0 {
		top := h.pop()
		if top.prio > cutoff {
			break // everything remaining is at least as far
		}
		if top.leaf {
			var cont bool
			cutoff, cont = visit(top.e, top.prio)
			if !cont {
				break
			}
			continue
		}
		accesses++
		n, err := t.loadNode(top.e.Child)
		if err != nil {
			return accesses, err
		}
		for _, e := range n.Entries {
			p := prio(e, n.Leaf)
			if p > cutoff {
				continue
			}
			h.push(bbEntry{prio: p, e: e, leaf: n.Leaf})
		}
	}
	return accesses, nil
}
