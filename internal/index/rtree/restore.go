package rtree

import (
	"fmt"
	"slices"
)

// Restore rebuilds a sealed tree from count nodes that node returns in
// dense id order — node i becomes id i of store, which must be fresh —
// the checkpoint loader's constructor. The caller is responsible for
// the nodes forming a valid tree rooted at root with the given height
// and entry count (the checkpoint format guarantees it: nodes are
// written by Walk and re-allocated id for id); CheckInvariants verifies
// it. cfg is normalized exactly as New does, so a restored tree mutates
// under the same capacities as a freshly built one.
//
// A leaf row that equals, bit for bit, the row Config.DeriveAux
// computes from its entry's rectangle is dropped as the node arrives:
// that is the form an insert of a row-less entry leaves, and a node
// page that holds every row (the paged store's layout) restores
// to it without a second pass.
func Restore(store NodeStore, cfg Config, count int, node func(id NodeID) (*Node, error), root NodeID, height, size int) (*Tree, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if height < 1 {
		return nil, fmt.Errorf("rtree: restore with height %d", height)
	}
	if size < 0 {
		return nil, fmt.Errorf("rtree: restore with size %d", size)
	}
	attachStore(store, cfg)
	t := &Tree{store: store, cfg: cfg, root: root, height: height, size: size}
	for i := range count {
		dec, err := node(NodeID(i))
		if err != nil {
			return nil, err
		}
		n, err := store.Alloc(dec.Leaf)
		if err != nil {
			return nil, err
		}
		if n.ID != NodeID(i) {
			return nil, fmt.Errorf("rtree: restore requires a fresh node store (allocated id %d, want %d)", n.ID, i)
		}
		n.Entries, n.Aux = dec.Entries, dec.Aux
		if n.Leaf {
			t.dropDerivedRows(n)
		}
		if err := store.Update(n); err != nil {
			return nil, err
		}
	}
	if _, err := store.Get(root); err != nil {
		return nil, fmt.Errorf("rtree: restore root: %w", err)
	}
	return t, nil
}

// dropDerivedRows drops every row of leaf n that DeriveAux computes
// from its entry's rectangle; n keeps a nil Aux when no row is left.
func (t *Tree) dropDerivedRows(n *Node) {
	if t.cfg.DeriveAux == nil || n.Aux == nil {
		return
	}
	if len(n.Aux) != len(n.Entries) {
		return // CheckInvariants reports it
	}
	buf := t.rows().entry
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
		kept[i] = slices.Clone(row) // not the decoded block every row was cut from
	}
	n.Aux = kept
}
