package rtree

// Copy-on-write mutation support: the MVCC foundation the engine's
// snapshot isolation is built on.
//
// A sealed tree is an immutable version: its root id and every node
// reachable from it are never modified again. CloneCOW starts the next
// version — a cheap handle copy sharing all nodes with the parent —
// and mutations on the clone path-copy: every node on a modified
// root-to-leaf path is rewritten under a freshly allocated id, parents
// are repointed at the copies, and the superseded ids are recorded
// instead of freed. Seal finishes the version and hands the retired
// ids to the caller, which frees them once no reader can still hold a
// version that references them (the engine's snapshot reclamation).
//
// Nodes allocated within the current (unsealed) version are private to
// the single writer and may be mutated in place — a batch of updates
// therefore copies each touched path node at most once, not once per
// update. They are the only nodes a version writes: storeNode refuses
// any other with ErrForeignNode. Readers of sealed versions never lock:
// they only Get node ids reachable from their version's root, and those
// are never rewritten.
//
// A copy starts as the shared node's entries and payload rows, and the
// mutation then recomputes only the envelope coordinates it can have
// moved (see the package comment) — an interior entry whose envelope
// did not move keeps the very row the older versions hold. Because min
// and max round nothing, what comes out is what recomputing every
// envelope on the path from all of its child's entries would give, bit
// for bit, so a version built here and one built by the full
// recomputation have identical node pages.

// cowState tracks one unsealed version's private bookkeeping.
type cowState struct {
	// fresh holds the ids allocated by this version: mutable in place,
	// freeable immediately if the version discards them again. The
	// value is the version's write cache: the node's latest contents
	// while they have not reached the store yet, nil once they have
	// (or before the first write). Updates of fresh nodes land here
	// (see Tree.storeNode) and are written through once, at
	// FlushCOW/Seal — so N updates touching the same node per batch
	// pay one store write (one page encode, for paged stores), not N.
	// Reads during the phase consult it first (Tree.loadNode).
	fresh map[NodeID]*Node
	// retired lists the ids of shared nodes this version superseded;
	// prior versions still reference them.
	retired []NodeID
}

// CloneCOW returns a copy-on-write clone of the tree: a mutable next
// version sharing every node with the receiver. Mutations on the
// clone never modify nodes reachable from the receiver's root, so the
// receiver remains a consistent, immutable view served concurrently.
// The clone is not safe for concurrent mutation (single writer), and
// must be Sealed before being published to concurrent readers.
func (t *Tree) CloneCOW() *Tree {
	return &Tree{
		store:  t.store,
		cfg:    t.cfg,
		root:   t.root,
		height: t.height,
		size:   t.size,
		cow:    &cowState{fresh: make(map[NodeID]*Node)},
	}
}

// FlushCOW writes the unsealed version's cached node updates through
// to the store. It is idempotent and optional — Seal flushes whatever
// remains — but a caller that may still need to abandon the version
// (the engine) flushes first: a write the store rejects here leaves a
// version AbortCOW can still discard whole, which a Seal that fails
// half-way across two trees would not.
func (t *Tree) FlushCOW() error {
	if t.cow == nil {
		return nil
	}
	for id, n := range t.cow.fresh {
		if n == nil {
			continue
		}
		if err := t.store.Update(n); err != nil {
			return err
		}
		t.cow.fresh[id] = nil
	}
	return nil
}

// Seal finishes the copy-on-write phase started by CloneCOW, writing
// any still-cached node updates through to the store, and returns the
// node ids this version superseded. The tree becomes an immutable
// published version: further mutations must go through a new CloneCOW.
// The caller owns the retired ids and must Free them on the tree's
// store only once no concurrent reader can still be traversing an
// earlier version. An error means the store rejected a flushed write;
// the version must not be published.
func (t *Tree) Seal() ([]NodeID, error) {
	if t.cow == nil {
		return nil, nil
	}
	if err := t.FlushCOW(); err != nil {
		return nil, err
	}
	retired := t.cow.retired
	t.cow = nil
	return retired, nil
}

// AbortCOW discards an unsealed copy-on-write version: every node the
// version allocated is freed and nothing is retired — the parent tree
// the clone was taken from is untouched by construction, so aborting
// simply releases the clone's private storage. The tree must not be
// used afterwards. It is how a failed mutation is thrown away instead
// of published.
func (t *Tree) AbortCOW() error {
	if t.cow == nil {
		return nil
	}
	var firstErr error
	for id := range t.cow.fresh {
		if err := t.store.Free(id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.cow = nil
	t.root = InvalidNode
	return firstErr
}

// writable returns a node the current mutation may modify: n itself
// when no COW phase is active or n was allocated by this version, else
// a fresh copy of n (new id, copied entries, shared payload rows) with
// n's id recorded as retired. Callers must repoint the parent entry
// (and t.root for the root) at the returned node's id. The entry copy
// is a flat memmove of pointer-free memory — all there is to a
// points-tree node — and both slices are sized so that the one entry an
// insert may append next fits without growing them again.
func (t *Tree) writable(n *Node) (*Node, error) {
	if t.cow == nil {
		return n, nil
	}
	if _, ok := t.cow.fresh[n.ID]; ok {
		return n, nil
	}
	nn, err := t.allocNode(n.Leaf)
	if err != nil {
		return nil, err
	}
	nn.Entries = make([]Entry, len(n.Entries), len(n.Entries)+1)
	copy(nn.Entries, n.Entries)
	if n.Aux != nil {
		nn.Aux = make([][]float64, len(n.Aux), len(n.Aux)+1)
		copy(nn.Aux, n.Aux)
	}
	t.cow.retired = append(t.cow.retired, n.ID)
	return nn, nil
}

// allocNode allocates a node, registering it as fresh (privately
// mutable) while a COW phase is active.
func (t *Tree) allocNode(leaf bool) (*Node, error) {
	n, err := t.store.Alloc(leaf)
	if err != nil {
		return nil, err
	}
	if t.cow != nil {
		t.cow.fresh[n.ID] = nil
	}
	return n, nil
}

// freeNode releases a node id: immediately when no COW phase is
// active or the id is fresh (this version allocated it, nothing else
// can reference it), otherwise deferred by recording it as retired.
func (t *Tree) freeNode(id NodeID) error {
	if t.cow == nil {
		return t.store.Free(id)
	}
	if _, ok := t.cow.fresh[id]; ok {
		delete(t.cow.fresh, id)
		return t.store.Free(id)
	}
	t.cow.retired = append(t.cow.retired, id)
	return nil
}

// FreeAll frees the given node ids on the store — the reclamation hook
// snapshot owners call once a retired list can no longer be referenced
// by any reader. The first error aborts the sweep.
func (t *Tree) FreeAll(ids []NodeID) error {
	for _, id := range ids {
		if err := t.store.Free(id); err != nil {
			return err
		}
	}
	return nil
}
