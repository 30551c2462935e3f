package rtree

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// deriveSpan is a payload that is a function of the entry's rectangle:
// [lo.x − w/3, hi.y + h/7], merged by min and max.
func deriveSpan(r geom.Rect, dst []float64) {
	dst[0] = r.Lo.X - r.Width()/3
	dst[1] = r.Hi.Y + r.Height()/7
}

func mergeSpan(dst, src []float64) {
	dst[0] = min(dst[0], src[0])
	dst[1] = max(dst[1], src[1])
}

// walkPages returns t's node pages in walk order, child ids renumbered
// in that order, as a checkpoint writes them.
func walkPages(tb testing.TB, t *Tree) [][]byte {
	return walkEncoded(tb, t, func(n *Node, page []byte, cfg Config) error {
		return encodeNode(n, page, cfg.AuxLen, cfg.DeriveAux)
	})
}

// walkEncoded is walkPages with the page encoder given.
func walkEncoded(tb testing.TB, t *Tree, encode func(*Node, []byte, Config) error) [][]byte {
	tb.Helper()
	var order []*Node
	index := map[NodeID]NodeID{}
	if err := t.Walk(func(n *Node, _ int) error {
		index[n.ID] = NodeID(len(order))
		order = append(order, n)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	pages := make([][]byte, len(order))
	for i, n := range order {
		cp := &Node{ID: NodeID(i), Leaf: n.Leaf, Aux: n.Aux, Entries: append([]Entry(nil), n.Entries...)}
		for j := range cp.Entries {
			if !n.Leaf {
				cp.Entries[j].SetChild(index[n.Entries[j].Child()])
			}
		}
		pages[i] = make([]byte, storage.PageSize)
		if err := encode(cp, pages[i], t.Config()); err != nil {
			tb.Fatal(err)
		}
	}
	return pages
}

// TestDerivedRowsMatchStored drives two trees through the same
// copy-on-write op stream: one stores every entry's row, the other —
// in memory and over a paged store — stores none for even refs and lets
// Config.DeriveAux compute them. After every version both must pass
// CheckInvariants and encode to the same node pages, byte for byte: a
// row the tree computes is the stored row wherever envelopes, splits,
// condensation and page encoding read it. Restore then turns the stored
// tree's pages into the derived tree's nodes. It runs with one capacity
// for every node and with leaves larger than interior nodes.
func TestDerivedRowsMatchStored(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"one capacity", Config{MaxEntries: 5, MinEntries: 2}},
		{"leaf capacity", Config{MaxEntries: 5, MinEntries: 2, LeafMaxEntries: 9}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := c.cfg
			base.AuxLen, base.MergeAux = 2, mergeSpan
			derivedRowsMatchStored(t, base)
		})
	}
}

func derivedRowsMatchStored(t *testing.T, base Config) {
	derived := base
	derived.DeriveAux = deriveSpan
	stored, err := BulkLoad(NewMemNodeStore(), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := BulkLoad(NewMemNodeStore(), derived, nil)
	if err != nil {
		t.Fatal(err)
	}
	paged, err := BulkLoad(NewPagedNodeStore(storage.NewBufferPool(storage.NewMemStore(), 64), 2), derived, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(91))
	live := map[Ref]geom.Rect{}
	var refs []Ref
	for version := 0; version < 60; version++ {
		trees := []*Tree{stored.CloneCOW(), mem.CloneCOW(), paged.CloneCOW()}
		for range 1 + rng.Intn(25) {
			if ref := Ref(rng.Intn(400)); len(live) < 250 || rng.Intn(3) > 0 {
				if old, ok := live[ref]; ok {
					for _, tr := range trees {
						if ok, err := tr.Delete(old, ref); err != nil || !ok {
							t.Fatalf("delete %d: %t %v", ref, ok, err)
						}
					}
				} else {
					refs = append(refs, ref)
				}
				c := geom.Pt(rng.Float64()*300, rng.Float64()*300)
				r := geom.RectCentered(c, 0.5+rng.Float64()*9, 0.5+rng.Float64()*9)
				row := make([]float64, 2)
				deriveSpan(r, row)
				for i, tr := range trees {
					aux := row
					if i > 0 && ref%2 == 0 {
						aux = nil
					}
					if err := tr.Insert(r, ref, aux); err != nil {
						t.Fatal(err)
					}
				}
				live[ref] = r
			} else if len(refs) > 0 {
				ref := refs[rng.Intn(len(refs))]
				if old, ok := live[ref]; ok {
					for _, tr := range trees {
						if ok, err := tr.Delete(old, ref); err != nil || !ok {
							t.Fatalf("delete %d: %t %v", ref, ok, err)
						}
					}
					delete(live, ref)
				}
			}
		}
		for _, tr := range trees {
			if _, err := tr.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		stored, mem, paged = trees[0], trees[1], trees[2]
		want := walkPages(t, stored)
		for name, tr := range map[string]*Tree{"memory": mem, "paged": paged} {
			if err := tr.CheckInvariants(true); err != nil {
				t.Fatalf("version %d, %s: %v", version, name, err)
			}
			got := walkPages(t, tr)
			if len(got) != len(want) {
				t.Fatalf("version %d, %s: %d nodes, stored tree has %d", version, name, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("version %d, %s: page %d differs from the stored tree's", version, name, i)
				}
			}
		}
	}

	// A node store restored from the stored tree's pages, as a
	// checkpoint of format 1 restores one: every row is derivable, so
	// no leaf keeps one, and the tree is still the same tree.
	pages := walkPages(t, stored)
	restored := restorePages(t, pages, derived, stored, DecodeNodePage)
	if err := restored.Walk(func(n *Node, _ int) error {
		if n.Leaf && n.Aux != nil {
			t.Fatalf("leaf %d keeps %d rows after Restore", n.ID, len(n.Aux))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, page := range walkPages(t, restored) {
		if !bytes.Equal(page, pages[i]) {
			t.Fatalf("restored tree's page %d differs from the stored tree's", i)
		}
	}

	// The same from cell pages, whose leaves hold no row at all: the
	// tree that comes back encodes to the stored tree's pages too.
	cells := walkEncoded(t, stored, EncodeCellPage)
	for i, page := range walkPages(t, restorePages(t, cells, derived, stored, DecodeCellPage)) {
		if !bytes.Equal(page, pages[i]) {
			t.Fatalf("tree restored from cell pages: page %d differs from the stored tree's", i)
		}
	}
}

// restorePages restores a tree of configuration cfg, shaped like shape,
// from pages decoded by decode, and checks its invariants.
func restorePages(t *testing.T, pages [][]byte, cfg Config, shape *Tree,
	decode func(NodeID, []byte, int) (*Node, error)) *Tree {
	t.Helper()
	tr, err := Restore(NewMemNodeStore(), cfg, len(pages), func(id NodeID) (*Node, error) {
		return decode(id, pages[id], cfg.AuxLen)
	}, 0, shape.Height(), shape.Len())
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	return tr
}
