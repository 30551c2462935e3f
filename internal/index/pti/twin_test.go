package pti

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/pdf"
	"repro/internal/storage"
	"repro/internal/uncertain"
)

// The incremental envelope maintenance of internal/index/rtree, held to
// the algorithm it replaced. twinTree below is that algorithm — the
// R-tree of the commit before the incremental one, vendored: Guttman
// insert/delete with quadratic splits, and after every change a full
// recomputation of every envelope on the path (all entries of the
// child, through math.Min/math.Max) — cut down to pointers and plain
// in-place mutation, since it only ever serves as the reference. The
// property test drives a PTI through copy-on-write versions and the
// twin through the same operations, and after every batch requires
//
//   - every interior entry of the PTI Float64bits-equal to an envelope
//     recomputed from scratch by the test (the oracle), and
//   - the PTI's node pages, ids renumbered in walk order as a
//     checkpoint does, byte-equal to the twin's.

type twinEntry struct {
	rect  geom.Rect
	ref   rtree.Ref
	child *twinNode
	aux   []float64
}

type twinNode struct {
	leaf    bool
	entries []twinEntry
}

type twinTree struct {
	root   *twinNode
	height int
	// The capacity and underflow threshold of interior nodes and of
	// leaves.
	maxEntries, minEntries         int
	leafMaxEntries, leafMinEntries int
}

// newTwinTree returns an empty twin with the node capacities of cfg, a
// tree's configuration.
func newTwinTree(cfg rtree.Config) *twinTree {
	t := &twinTree{root: &twinNode{leaf: true}, height: 1}
	t.maxEntries, t.minEntries = cfg.Capacity(false)
	t.leafMaxEntries, t.leafMinEntries = cfg.Capacity(true)
	return t
}

// capacity returns the capacity and underflow threshold of n's kind.
func (t *twinTree) capacity(n *twinNode) (int, int) {
	if n.leaf {
		return t.leafMaxEntries, t.leafMinEntries
	}
	return t.maxEntries, t.minEntries
}

// twinMergeAux is pti.mergeAux as it was: math.Min / math.Max.
func twinMergeAux(dst, src []float64) {
	for i := 0; i < len(dst); i += 4 {
		dst[i] = math.Min(dst[i], src[i])
		dst[i+1] = math.Max(dst[i+1], src[i+1])
		dst[i+2] = math.Min(dst[i+2], src[i+2])
		dst[i+3] = math.Max(dst[i+3], src[i+3])
	}
}

// envelope is the from-scratch parent-entry view of n.
func (n *twinNode) envelope() (geom.Rect, []float64) {
	r := n.entries[0].rect
	aux := append([]float64(nil), n.entries[0].aux...)
	for _, e := range n.entries[1:] {
		r = r.Union(e.rect)
		twinMergeAux(aux, e.aux)
	}
	return r, aux
}

type twinStep struct {
	node     *twinNode
	entryIdx int
}

func (t *twinTree) insert(r geom.Rect, ref rtree.Ref, aux []float64) {
	t.insertAtLevel(twinEntry{rect: r, ref: ref, aux: append([]float64(nil), aux...)}, 0)
}

func (t *twinTree) chooseNode(r geom.Rect, targetLevel int) []twinStep {
	n := t.root
	path := []twinStep{{node: n, entryIdx: -1}}
	for level := t.height - 1; level > targetLevel; level-- {
		best := -1
		var bestEnl, bestArea float64
		for i, e := range n.entries {
			enl := e.rect.Enlargement(r)
			area := e.rect.Area()
			if best == -1 || enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n = n.entries[best].child
		path = append(path, twinStep{node: n, entryIdx: best})
	}
	return path
}

func (t *twinTree) insertAtLevel(e twinEntry, level int) {
	path := t.chooseNode(e.rect, level)
	n := path[len(path)-1].node
	n.entries = append(n.entries, e)
	var splitNew *twinNode
	if maxEntries, _ := t.capacity(n); len(n.entries) > maxEntries {
		splitNew = t.splitQuadratic(n)
	}
	// adjustTree: every parent entry on the path recomputed in full.
	for i := len(path) - 1; i > 0; i-- {
		child, parent := path[i], path[i-1].node
		pe := &parent.entries[child.entryIdx]
		pe.rect, pe.aux = child.node.envelope()
		if splitNew != nil {
			r2, a2 := splitNew.envelope()
			parent.entries = append(parent.entries, twinEntry{rect: r2, child: splitNew, aux: a2})
			splitNew = nil
		}
		if len(parent.entries) > t.maxEntries {
			splitNew = t.splitQuadratic(parent)
		}
	}
	if splitNew != nil {
		old := t.root
		r1, a1 := old.envelope()
		r2, a2 := splitNew.envelope()
		t.root = &twinNode{entries: []twinEntry{
			{rect: r1, child: old, aux: a1},
			{rect: r2, child: splitNew, aux: a2},
		}}
		t.height++
	}
}

func (t *twinTree) splitQuadratic(n *twinNode) *twinNode {
	entries := n.entries
	_, minEntries := t.capacity(n)
	seedA, seedB, bestWaste := 0, 1, -1.0
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			u := entries[i].rect.Union(entries[j].rect)
			waste := u.Area() - entries[i].rect.Area() - entries[j].rect.Area()
			if waste > bestWaste {
				seedA, seedB, bestWaste = i, j, waste
			}
		}
	}
	groupA := []twinEntry{entries[seedA]}
	groupB := []twinEntry{entries[seedB]}
	rectA, rectB := entries[seedA].rect, entries[seedB].rect
	rest := make([]twinEntry, 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		if len(groupA)+len(rest) == minEntries {
			groupA = append(groupA, rest...)
			break
		}
		if len(groupB)+len(rest) == minEntries {
			groupB = append(groupB, rest...)
			break
		}
		bestIdx, bestDiff := -1, -1.0
		var bestDA, bestDB float64
		for i, e := range rest {
			dA := rectA.Enlargement(e.rect)
			dB := rectB.Enlargement(e.rect)
			diff := math.Abs(dA - dB)
			if diff > bestDiff {
				bestIdx, bestDiff, bestDA, bestDB = i, diff, dA, dB
			}
		}
		e := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
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
			rectA = rectA.Union(e.rect)
		} else {
			groupB = append(groupB, e)
			rectB = rectB.Union(e.rect)
		}
	}
	n.entries = groupA
	return &twinNode{leaf: n.leaf, entries: groupB}
}

func (t *twinTree) findLeaf(n *twinNode, r geom.Rect, ref rtree.Ref) ([]twinStep, bool) {
	if n.leaf {
		for _, e := range n.entries {
			if e.ref == ref && e.rect.ApproxEqual(r) {
				return []twinStep{{node: n, entryIdx: -1}}, true
			}
		}
		return nil, false
	}
	for i, e := range n.entries {
		if !e.rect.ContainsRect(r) {
			continue
		}
		if sub, found := t.findLeaf(e.child, r, ref); found {
			sub[0].entryIdx = i
			return append([]twinStep{{node: n, entryIdx: -1}}, sub...), true
		}
	}
	return nil, false
}

func (t *twinTree) delete(r geom.Rect, ref rtree.Ref) bool {
	path, found := t.findLeaf(t.root, r, ref)
	if !found {
		return false
	}
	leaf := path[len(path)-1].node
	for i, e := range leaf.entries {
		if e.ref == ref && e.rect.ApproxEqual(r) {
			leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
			break
		}
	}
	// condenseTree: dissolve underflowing nodes, recompute the rest in
	// full, reinsert orphans, collapse a single-child root.
	type orphan struct {
		entries []twinEntry
		level   int
	}
	var orphans []orphan
	for i := len(path) - 1; i > 0; i-- {
		n, parent := path[i].node, path[i-1].node
		idx := path[i].entryIdx
		if _, minEntries := t.capacity(n); len(n.entries) < minEntries {
			parent.entries = append(parent.entries[:idx], parent.entries[idx+1:]...)
			if len(n.entries) > 0 {
				orphans = append(orphans, orphan{entries: n.entries, level: t.height - 1 - i})
			}
		} else {
			parent.entries[idx].rect, parent.entries[idx].aux = n.envelope()
		}
	}
	for i := len(orphans) - 1; i >= 0; i-- {
		for _, e := range orphans[i].entries {
			t.insertAtLevel(e, orphans[i].level)
		}
	}
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.height--
	}
	return true
}

// pages encodes the twin's nodes in preorder, child pointers numbered
// in that order.
func (t *twinTree) pages(tb testing.TB, auxLen int) [][]byte {
	var order []*twinNode
	index := make(map[*twinNode]rtree.NodeID)
	var walk func(n *twinNode)
	walk = func(n *twinNode) {
		index[n] = rtree.NodeID(len(order))
		order = append(order, n)
		if !n.leaf {
			for _, e := range n.entries {
				walk(e.child)
			}
		}
	}
	walk(t.root)
	out := make([][]byte, len(order))
	for i, n := range order {
		cp := &rtree.Node{ID: rtree.NodeID(i), Leaf: n.leaf}
		for _, e := range n.entries {
			re := rtree.Entry{Rect: e.rect, Ref: e.ref}
			if !n.leaf {
				re.SetChild(index[e.child])
			}
			cp.Entries = append(cp.Entries, re)
			cp.Aux = append(cp.Aux, e.aux)
		}
		out[i] = encodePage(tb, cp, rtree.Config{AuxLen: auxLen})
	}
	return out
}

// encodePage encodes n as a cell page (rtree.EncodeCellPage): a leaf
// as its rectangles and refs, whatever its capacity — every leaf row
// of the op stream is a leaf record's, a function of its rectangle —
// and an interior node with its rows.
func encodePage(tb testing.TB, n *rtree.Node, cfg rtree.Config) []byte {
	page := make([]byte, storage.PageSize)
	if err := rtree.EncodeCellPage(n, page, cfg); err != nil {
		tb.Fatal(err)
	}
	return page
}

// treePages walks a sealed rtree and returns its node pages as pages()
// does for the twin, checking each interior entry against the oracle on
// the way.
func treePages(tb testing.TB, tr *rtree.Tree, auxLen int) [][]byte {
	var order []*rtree.Node
	index := make(map[rtree.NodeID]rtree.NodeID)
	byID := make(map[rtree.NodeID]*rtree.Node)
	if err := tr.Walk(func(n *rtree.Node, _ int) error {
		index[n.ID] = rtree.NodeID(len(order))
		byID[n.ID] = n
		order = append(order, n)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	out := make([][]byte, len(order))
	for i, n := range order {
		cp := &rtree.Node{ID: rtree.NodeID(i), Leaf: n.Leaf, Aux: n.Aux}
		cp.Entries = append(cp.Entries, n.Entries...)
		if !n.Leaf {
			for j, e := range n.Entries {
				checkOracle(tb, n, j, byID[e.Child()])
				cp.Entries[j].SetChild(index[e.Child()])
			}
		}
		out[i] = encodePage(tb, cp, tr.Config())
	}
	return out
}

// rowOf returns entry k's payload row: the stored one, or the catalog
// row of the uniform object over the entry's rectangle, which a leaf
// record's entry stores none of.
func rowOf(n *rtree.Node, k int) []float64 {
	if n.Aux != nil && n.Aux[k] != nil {
		return n.Aux[k]
	}
	row := make([]float64, 0, AuxLen(len(probs)))
	for _, p := range probs {
		b := uncertain.UniformBound(n.Entries[k].Rect, p)
		row = append(row, b.Left, b.Right, b.Bottom, b.Top)
	}
	return row
}

// checkOracle recomputes the envelope of child from scratch and
// requires parent's entry j to equal it bit for bit.
func checkOracle(tb testing.TB, parent *rtree.Node, j int, child *rtree.Node) {
	r := child.Entries[0].Rect
	aux := append([]float64(nil), rowOf(child, 0)...)
	for k := 1; k < len(child.Entries); k++ {
		r = r.Union(child.Entries[k].Rect)
		twinMergeAux(aux, rowOf(child, k))
	}
	got := parent.Entries[j].Rect
	same := bits(got.Lo.X, r.Lo.X) && bits(got.Lo.Y, r.Lo.Y) && bits(got.Hi.X, r.Hi.X) && bits(got.Hi.Y, r.Hi.Y)
	for k := range aux {
		same = same && bits(parent.Aux[j][k], aux[k])
	}
	if !same {
		tb.Fatalf("node %d entry %d: envelope %v %v, from scratch %v %v", parent.ID, j, got, parent.Aux[j], r, aux)
	}
}

func bits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestIncrementalEnvelopesMatchTwin runs the property over a paged
// store, where every node holds 11 entries, and in memory, where a leaf
// holds MemLeafEntries; ceiling is the object count a growth phase
// reaches, enough for a height-4 tree either way.
func TestIncrementalEnvelopesMatchTwin(t *testing.T) {
	t.Run("paged", func(t *testing.T) {
		incrementalEnvelopesMatchTwin(t, rtree.NewPagedNodeStore(storage.NewBufferPool(storage.NewMemStore(), 256), AuxLen(len(probs))), 1400)
	})
	t.Run("memory", func(t *testing.T) {
		incrementalEnvelopesMatchTwin(t, rtree.NewMemNodeStore(), 5000)
	})
}

func incrementalEnvelopesMatchTwin(t *testing.T, store rtree.NodeStore, ceiling int) {
	const world = 2000.0
	ops := 24000
	if testing.Short() {
		ops = 8000 // one growth and one collapse; the race job runs this
	}
	rng := rand.New(rand.NewSource(424242))
	auxLen := AuxLen(len(probs))
	ix, err := BulkLoad(store, probs, nil)
	if err != nil {
		t.Fatal(err)
	}
	twin := newTwinTree(ix.Tree().Config())
	live := map[uncertain.ID]*uncertain.Object{}
	var ids []uncertain.ID // every id ever used; dead ones are skipped or resurrected
	nextID := uncertain.ID(0)

	newObject := func(id uncertain.ID, region geom.Rect) *uncertain.Object {
		o, err := uncertain.NewObject(id, pdf.MustUniform(region), probs)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	randRegion := func() geom.Rect {
		c := geom.Pt(rng.Float64()*world, rng.Float64()*world)
		return geom.RectCentered(c, 1+rng.Float64()*20, 1+rng.Float64()*20)
	}
	// Step sizes from nothing to the whole world.
	steps := []float64{0, 0.5, 8, 100, world}

	var maxHeight, versions, done int
	sawLeafRoot := false
	for phase := 0; done < ops; phase++ {
		// Alternate growth and shrinkage so nodes split and dissolve
		// and the root grows and collapses, several times over.
		growing := phase%2 == 0
		target := ceiling
		if !growing {
			target = []int{0, 3, 40}[phase/2%3]
		}
		for done < ops && (growing && len(live) < target || !growing && len(live) > target) {
			clone := ix.CloneCOW()
			upsert := func(o *uncertain.Object) {
				aux, err := encodeBounds(o, probs)
				if err != nil {
					t.Fatal(err)
				}
				if old, ok := live[o.ID]; ok {
					if found, err := clone.Delete(old.Region(), old.ID); err != nil || !found {
						t.Fatalf("delete %d: %v %v", o.ID, found, err)
					}
					if !twin.delete(old.Region(), rtree.Ref(o.ID)) {
						t.Fatalf("twin lost %d", o.ID)
					}
				}
				if record, err := clone.Insert(o); err != nil || !record {
					t.Fatalf("insert %d: leaf record %t, %v", o.ID, record, err)
				}
				twin.insert(o.Region(), rtree.Ref(o.ID), aux)
				live[o.ID] = o
			}
			batch := 1 + rng.Intn(60)
			var lastID uncertain.ID = -1
			for b := 0; b < batch; b++ {
				done++
				roll := rng.Float64()
				switch {
				case lastID >= 0 && roll < 0.05:
					// The same id twice in a batch.
					upsert(newObject(lastID, live[lastID].Region().Translate(geom.Vec{X: 1, Y: -1})))
				case len(ids) > 0 && (roll < 0.35 || !growing && roll < 0.45):
					// Move a live object (or, while growing, resurrect a
					// dead id).
					id := ids[rng.Intn(len(ids))]
					region := randRegion()
					if old, ok := live[id]; ok {
						s := steps[rng.Intn(len(steps))]
						region = old.Region().Translate(geom.Vec{X: (rng.Float64()*2 - 1) * s, Y: (rng.Float64()*2 - 1) * s})
					} else if !growing {
						continue
					}
					upsert(newObject(id, region))
					lastID = id
				case growing && roll < 0.9 || !growing && roll < 0.5:
					// Insert; one in ten lands exactly on a live object's region.
					region := randRegion()
					if rng.Intn(10) == 0 && len(ids) > 0 {
						if twin, ok := live[ids[rng.Intn(len(ids))]]; ok {
							region = twin.Region()
						}
					}
					upsert(newObject(nextID, region))
					ids = append(ids, nextID)
					lastID = nextID
					nextID++
				default:
					// Delete a live object: the first one at or after a
					// random position of the id list.
					if len(live) == 0 {
						continue
					}
					at := rng.Intn(len(ids))
					for _, alive := live[ids[at]]; !alive; _, alive = live[ids[at]] {
						at = (at + 1) % len(ids)
					}
					id := ids[at]
					old := live[id]
					if found, err := clone.Delete(old.Region(), id); err != nil || !found {
						t.Fatalf("delete %d: %v %v", id, found, err)
					}
					if !twin.delete(old.Region(), rtree.Ref(id)) {
						t.Fatalf("twin lost %d", id)
					}
					delete(live, id)
					if lastID == id {
						lastID = -1
					}
				}
			}
			if _, err := clone.Seal(); err != nil {
				t.Fatal(err)
			}
			ix = clone
			versions++

			tr := ix.Tree()
			if tr.Len() != len(live) || tr.Height() != twin.height {
				t.Fatalf("version %d: %d entries height %d, want %d entries height %d",
					versions, tr.Len(), tr.Height(), len(live), twin.height)
			}
			if err := tr.CheckInvariants(true); err != nil {
				t.Fatalf("version %d: %v", versions, err)
			}
			got, want := treePages(t, tr, auxLen), twin.pages(t, auxLen)
			if len(got) != len(want) {
				t.Fatalf("version %d: %d nodes, twin has %d", versions, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("version %d: page %d (walk order) differs from the twin's", versions, i)
				}
			}
			maxHeight = max(maxHeight, tr.Height())
			sawLeafRoot = sawLeafRoot || versions > 1 && tr.Height() == 1
		}
	}
	if maxHeight < 4 || !sawLeafRoot {
		t.Fatalf("op stream too tame: max height %d, collapsed to a leaf root: %t", maxHeight, sawLeafRoot)
	}
	t.Logf("%d ops in %d versions, max height %d", done, versions, maxHeight)
}
