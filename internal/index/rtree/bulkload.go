package rtree

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Item is one object for bulk loading. Aux is its payload row, of
// length Config.AuxLen; nil stores none, in a tree whose DeriveAux
// computes it from Rect (and in a tree that carries none).
type Item struct {
	Rect geom.Rect
	Ref  Ref
	Aux  []float64
}

// BulkLoad replaces the tree's contents with the given items using
// Sort-Tile-Recursive packing (Leutenegger et al. 1997): items are
// sorted by center x, cut into vertical slabs, each slab sorted by
// center y and packed into full leaves; the procedure repeats one
// level up until a single root remains. STR yields near-100% node
// utilization and is how the experiment datasets are indexed.
func BulkLoad(store NodeStore, cfg Config, items []Item) (*Tree, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	attachStore(store, cfg)
	t := &Tree{store: store, cfg: cfg}
	if len(items) == 0 {
		root, err := store.Alloc(true)
		if err != nil {
			return nil, err
		}
		if err := store.Update(root); err != nil {
			return nil, err
		}
		t.root, t.height = root.ID, 1
		return t, nil
	}
	for _, it := range items {
		if err := it.Rect.Validate(); err != nil {
			return nil, err
		}
		if len(it.Aux) != cfg.AuxLen && (it.Aux != nil || cfg.DeriveAux == nil) {
			return nil, fmt.Errorf("rtree: bulk item aux length %d, want %d", len(it.Aux), cfg.AuxLen)
		}
	}

	auxLen := cfg.AuxLen
	entries := make([]packed, len(items))
	for i, it := range items {
		entries[i] = packed{e: Entry{Rect: it.Rect, Ref: it.Ref}, aux: it.Aux}
	}

	level := 0
	leaf := true
	for {
		if maxEntries, _ := cfg.Capacity(leaf); len(entries) <= maxEntries {
			break
		}
		nodes, err := t.packLevel(entries, leaf)
		if err != nil {
			return nil, err
		}
		entries = nodes
		leaf = false
		level++
	}
	root, err := store.Alloc(leaf)
	if err != nil {
		return nil, err
	}
	fillNode(root, entries, auxLen)
	if err := store.Update(root); err != nil {
		return nil, err
	}
	t.root = root.ID
	t.height = level + 1
	t.size = len(items)
	return t, nil
}

// packed is an entry on its way into a node, with its payload beside
// it so the two sort together.
type packed struct {
	e   Entry
	aux []float64
}

// fillNode gives n the packed entries, in order, as its contents; the
// payloads are copied, into one block. A node none of whose entries
// stores a row keeps a nil Aux.
func fillNode(n *Node, entries []packed, auxLen int) {
	n.Entries = make([]Entry, len(entries))
	stored := 0
	for i, p := range entries {
		n.Entries[i] = p.e
		if p.aux != nil {
			stored++
		}
	}
	if stored == 0 || auxLen == 0 {
		return
	}
	n.Aux = make([][]float64, len(entries))
	block := make([]float64, stored*auxLen)
	for i, p := range entries {
		if p.aux != nil {
			n.Aux[i] = block[:auxLen:auxLen]
			copy(n.Aux[i], p.aux)
			block = block[auxLen:]
		}
	}
}

// packLevel tiles entries into full nodes of the level's kind and
// returns the parent entries describing them.
func (t *Tree) packLevel(entries []packed, leaf bool) ([]packed, error) {
	m, _ := t.cfg.Capacity(leaf)
	auxLen := t.cfg.AuxLen
	nLeaves := (len(entries) + m - 1) / m
	nSlabs := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	slabSize := nSlabs * m

	sort.Slice(entries, func(i, j int) bool {
		return entries[i].e.Rect.Center().X < entries[j].e.Rect.Center().X
	})

	parents := make([]packed, 0, nLeaves)
	for s := 0; s < len(entries); s += slabSize {
		end := s + slabSize
		if end > len(entries) {
			end = len(entries)
		}
		slab := entries[s:end]
		sort.Slice(slab, func(i, j int) bool {
			return slab[i].e.Rect.Center().Y < slab[j].e.Rect.Center().Y
		})
		for o := 0; o < len(slab); o += m {
			oe := o + m
			if oe > len(slab) {
				oe = len(slab)
			}
			node, err := t.store.Alloc(leaf)
			if err != nil {
				return nil, err
			}
			fillNode(node, slab[o:oe], auxLen)
			if err := t.store.Update(node); err != nil {
				return nil, err
			}
			r, aux := t.entryEnvelope(node)
			parents = append(parents, packed{e: childEntry(r, node.ID), aux: aux})
		}
	}
	if len(parents) == 0 {
		return nil, errors.New("rtree: packLevel produced no nodes")
	}
	return parents, nil
}
