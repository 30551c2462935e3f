package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// smallCfg keeps nodes tiny so splits and underflows happen often.
var smallCfg = Config{MaxEntries: 4, MinEntries: 2}

// newMemTree builds an empty tree over a fresh memory store.
func newMemTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := BulkLoad(NewMemNodeStore(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// searchRefs returns the refs of the leaf entries a SearchCounted over
// q visits, in visit order, and the node accesses it performed.
func searchRefs(tr *Tree, q geom.Rect) ([]Ref, int64, error) {
	var out []Ref
	n, err := tr.SearchCounted(q, nil, func(e Entry, _ []float64) bool {
		out = append(out, e.Ref)
		return true
	})
	return out, n, err
}

// rootBounds returns the union of the root's entry rectangles: the
// bounds of all data, Empty for an empty tree.
func rootBounds(tr *Tree) (geom.Rect, error) {
	n, err := tr.loadNode(tr.root)
	if err != nil {
		return geom.Rect{}, err
	}
	return n.bounds(), nil
}

// randItems produces n random small rectangles with refs 0..n-1.
func randItems(rng *rand.Rand, n int, world float64) []Item {
	items := make([]Item, n)
	for i := range items {
		c := geom.Pt(rng.Float64()*world, rng.Float64()*world)
		items[i] = Item{
			Rect: geom.RectCentered(c, rng.Float64()*5, rng.Float64()*5),
			Ref:  Ref(i),
		}
	}
	return items
}

// bruteForce returns refs of items intersecting q.
func bruteForce(items []Item, q geom.Rect) []Ref {
	var out []Ref
	for _, it := range items {
		if q.Intersects(it.Rect) {
			out = append(out, it.Ref)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedRefs(rs []Ref) []Ref {
	out := append([]Ref(nil), rs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func refsEqual(a, b []Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestConfigNormalize(t *testing.T) {
	// Defaults: capacity from page size.
	cfg, err := Config{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MaxEntries != CapacityForPage(0) {
		t.Fatalf("default MaxEntries = %d, want %d", cfg.MaxEntries, CapacityForPage(0))
	}
	if cfg.MinEntries != cfg.MaxEntries*2/5 {
		t.Fatalf("default MinEntries = %d", cfg.MinEntries)
	}
	// 4 KiB page with no aux: (4096-8)/40 = 102 entries.
	if got := CapacityForPage(0); got != 102 {
		t.Fatalf("CapacityForPage(0) = %d, want 102", got)
	}
	// Paper-style PTI payload: 10 catalog values x 4 sides = 40 floats.
	if got := CapacityForPage(40); got != 11 {
		t.Fatalf("CapacityForPage(40) = %d, want 11", got)
	}
	// Errors.
	if _, err := (Config{AuxLen: 2}).normalize(); err == nil {
		t.Fatal("AuxLen without MergeAux accepted")
	}
	if _, err := (Config{MaxEntries: 3}).normalize(); err == nil {
		t.Fatal("MaxEntries < 4 accepted")
	}
	if _, err := (Config{MaxEntries: 10, MinEntries: 6}).normalize(); err == nil {
		t.Fatal("MinEntries > M/2 accepted")
	}
	if _, err := (Config{AuxLen: -1}).normalize(); err == nil {
		t.Fatal("negative AuxLen accepted")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := newMemTree(t, smallCfg)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("Len = %d, Height = %d", tr.Len(), tr.Height())
	}
	refs, _, err := searchRefs(tr, geom.Rect{Lo: geom.Pt(-1e9, -1e9), Hi: geom.Pt(1e9, 1e9)})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 0 {
		t.Fatalf("empty tree returned %v", refs)
	}
	b, err := rootBounds(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Empty() {
		t.Fatalf("empty tree bounds = %v", b)
	}
}

func TestInsertAndSearchSmall(t *testing.T) {
	tr := newMemTree(t, smallCfg)
	rects := []geom.Rect{
		{Lo: geom.Pt(0, 0), Hi: geom.Pt(1, 1)},
		{Lo: geom.Pt(5, 5), Hi: geom.Pt(6, 6)},
		{Lo: geom.Pt(10, 0), Hi: geom.Pt(11, 1)},
	}
	for i, r := range rects {
		if err := tr.Insert(r, Ref(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	refs, _, err := searchRefs(tr, geom.Rect{Lo: geom.Pt(4, 4), Hi: geom.Pt(7, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if !refsEqual(sortedRefs(refs), []Ref{1}) {
		t.Fatalf("search = %v, want [1]", refs)
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRejectsInvalid(t *testing.T) {
	tr := newMemTree(t, smallCfg)
	if err := tr.Insert(geom.Rect{Lo: geom.Pt(1, 1), Hi: geom.Pt(0, 0)}, 1, nil); err == nil {
		t.Fatal("invalid rect accepted")
	}
	if err := tr.Insert(geom.RectAt(geom.Pt(0, 0)), 1, []float64{1}); err == nil {
		t.Fatal("aux on aux-less tree accepted")
	}
}

func TestInsertManyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	items := randItems(rng, 1000, 1000)
	tr := newMemTree(t, smallCfg)
	for _, it := range items {
		if err := tr.Insert(it.Rect, it.Ref, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d; expected deep tree with M=4", tr.Height())
	}
	for i := 0; i < 100; i++ {
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		q := geom.RectCentered(c, rng.Float64()*80, rng.Float64()*80)
		got, _, err := searchRefs(tr, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForce(items, q); !refsEqual(sortedRefs(got), want) {
			t.Fatalf("query %v: got %d refs, want %d", q, len(got), len(want))
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	tr := newMemTree(t, smallCfg)
	for _, it := range randItems(rng, 200, 100) {
		if err := tr.Insert(it.Rect, it.Ref, nil); err != nil {
			t.Fatal(err)
		}
	}
	world := geom.Rect{Lo: geom.Pt(-10, -10), Hi: geom.Pt(110, 110)}
	var seen int
	_, err := tr.SearchCounted(world, nil, func(Entry, []float64) bool {
		seen++
		return seen < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatalf("early stop visited %d entries, want 5", seen)
	}
}

func TestDeleteMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	items := randItems(rng, 600, 500)
	tr := newMemTree(t, smallCfg)
	for _, it := range items {
		if err := tr.Insert(it.Rect, it.Ref, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Delete a random half.
	perm := rng.Perm(len(items))
	removed := map[Ref]bool{}
	for _, idx := range perm[:300] {
		it := items[idx]
		ok, err := tr.Delete(it.Rect, it.Ref)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("Delete(%v, %d) found nothing", it.Rect, it.Ref)
		}
		removed[it.Ref] = true
	}
	if tr.Len() != 300 {
		t.Fatalf("Len after deletes = %d, want 300", tr.Len())
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	var live []Item
	for _, it := range items {
		if !removed[it.Ref] {
			live = append(live, it)
		}
	}
	for i := 0; i < 60; i++ {
		c := geom.Pt(rng.Float64()*500, rng.Float64()*500)
		q := geom.RectCentered(c, rng.Float64()*60, rng.Float64()*60)
		got, _, err := searchRefs(tr, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForce(live, q); !refsEqual(sortedRefs(got), want) {
			t.Fatalf("after deletes, query %v mismatch", q)
		}
	}
}

func TestDeleteAll(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	items := randItems(rng, 150, 100)
	tr := newMemTree(t, smallCfg)
	for _, it := range items {
		if err := tr.Insert(it.Rect, it.Ref, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range items {
		ok, err := tr.Delete(it.Rect, it.Ref)
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%t err=%v", it.Ref, ok, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("height = %d after deleting all, want 1", tr.Height())
	}
	ok, err := tr.Delete(items[0].Rect, items[0].Ref)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("delete from empty tree reported success")
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := newMemTree(t, smallCfg)
	r := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(1, 1)}
	if err := tr.Insert(r, 1, nil); err != nil {
		t.Fatal(err)
	}
	// Same rect, wrong ref.
	if ok, _ := tr.Delete(r, 2); ok {
		t.Fatal("deleted entry with wrong ref")
	}
	// Same ref, wrong rect.
	if ok, _ := tr.Delete(r.Translate(geom.Vec{X: 5}), 1); ok {
		t.Fatal("deleted entry with wrong rect")
	}
	if tr.Len() != 1 {
		t.Fatal("entry vanished")
	}
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	items := randItems(rng, 5000, 2000)
	tr, err := BulkLoad(NewMemNodeStore(), Config{MaxEntries: 16, MinEntries: 4}, items)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		c := geom.Pt(rng.Float64()*2000, rng.Float64()*2000)
		q := geom.RectCentered(c, rng.Float64()*100, rng.Float64()*100)
		got, _, err := searchRefs(tr, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForce(items, q); !refsEqual(sortedRefs(got), want) {
			t.Fatalf("bulk query %v mismatch", q)
		}
	}
}

func TestBulkLoadEmptyAndSmall(t *testing.T) {
	tr, err := BulkLoad(NewMemNodeStore(), smallCfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty bulk: Len=%d Height=%d", tr.Len(), tr.Height())
	}
	// Fewer items than one node.
	items := randItems(rand.New(rand.NewSource(56)), 3, 10)
	tr, err = BulkLoad(NewMemNodeStore(), smallCfg, items)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 || tr.Height() != 1 {
		t.Fatalf("small bulk: Len=%d Height=%d", tr.Len(), tr.Height())
	}
}

func TestBulkLoadUtilization(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	items := randItems(rng, 4000, 2000)
	tr, err := BulkLoad(NewMemNodeStore(), Config{MaxEntries: 20, MinEntries: 4}, items)
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	err = tr.Walk(func(n *Node, _ int) error {
		if n.Leaf {
			leaves++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// STR should pack near-full leaves: ceil(4000/20) = 200.
	if leaves > 205 {
		t.Fatalf("STR produced %d leaves for 4000/20 items", leaves)
	}
}

func TestInsertAfterBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	items := randItems(rng, 500, 300)
	tr, err := BulkLoad(NewMemNodeStore(), smallCfg, items)
	if err != nil {
		t.Fatal(err)
	}
	extra := randItems(rng, 100, 300)
	for _, it := range extra {
		if err := tr.Insert(it.Rect, it.Ref+1000, nil); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 600 {
		t.Fatalf("Len = %d", tr.Len())
	}
	all := append([]Item{}, items...)
	for _, it := range extra {
		all = append(all, Item{Rect: it.Rect, Ref: it.Ref + 1000})
	}
	for i := 0; i < 40; i++ {
		c := geom.Pt(rng.Float64()*300, rng.Float64()*300)
		q := geom.RectCentered(c, rng.Float64()*50, rng.Float64()*50)
		got, _, err := searchRefs(tr, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForce(all, q); !refsEqual(sortedRefs(got), want) {
			t.Fatalf("mixed query %v mismatch", q)
		}
	}
}

func TestNodeAccessCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	items := randItems(rng, 2000, 1000)
	tr, err := BulkLoad(NewMemNodeStore(), Config{MaxEntries: 32, MinEntries: 8}, items)
	if err != nil {
		t.Fatal(err)
	}
	small := geom.RectCentered(geom.Pt(500, 500), 10, 10)
	_, smallCost, err := searchRefs(tr, small)
	if err != nil {
		t.Fatal(err)
	}
	if smallCost < 1 {
		t.Fatal("no node accesses counted")
	}
	big := geom.RectCentered(geom.Pt(500, 500), 400, 400)
	_, bigCost, err := searchRefs(tr, big)
	if err != nil {
		t.Fatal(err)
	}
	if bigCost <= smallCost {
		t.Fatalf("larger query cost %d not above smaller %d", bigCost, smallCost)
	}
}

func TestAuxMaintenance(t *testing.T) {
	// Aux = [minStart, maxEnd] envelope maintained under inserts,
	// splits, and deletes.
	merge := func(dst, src []float64) {
		if src[0] < dst[0] {
			dst[0] = src[0]
		}
		if src[1] > dst[1] {
			dst[1] = src[1]
		}
	}
	cfg := Config{MaxEntries: 4, MinEntries: 2, AuxLen: 2, MergeAux: merge}
	tr, err := BulkLoad(NewMemNodeStore(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(60))
	type rec struct {
		rect geom.Rect
		aux  []float64
		ref  Ref
	}
	var recs []rec
	for i := 0; i < 300; i++ {
		c := geom.Pt(rng.Float64()*500, rng.Float64()*500)
		v := rng.Float64() * 100
		r := rec{
			rect: geom.RectCentered(c, 2, 2),
			aux:  []float64{v, v + rng.Float64()*10},
			ref:  Ref(i),
		}
		recs = append(recs, r)
		if err := tr.Insert(r.rect, r.ref, r.aux); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	// Delete some and re-validate aux envelopes.
	for _, i := range rng.Perm(300)[:120] {
		ok, err := tr.Delete(recs[i].rect, recs[i].ref)
		if err != nil || !ok {
			t.Fatalf("delete %d: %t %v", i, ok, err)
		}
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	// Leaf aux values round-trip unchanged.
	seen := 0
	err = tr.Walk(func(n *Node, level int) error {
		if !n.Leaf {
			return nil
		}
		for i, e := range n.Entries {
			want, got := recs[e.Ref].aux, n.auxAt(i)
			if got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("ref %d aux = %v, want %v", e.Ref, got, want)
			}
			seen++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 180 {
		t.Fatalf("saw %d leaf entries, want 180", seen)
	}
}

func TestSearchWithPruner(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	items := randItems(rng, 1000, 1000)
	tr, err := BulkLoad(NewMemNodeStore(), Config{MaxEntries: 8, MinEntries: 2}, items)
	if err != nil {
		t.Fatal(err)
	}
	world := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(1000, 1000)}
	// Pruning everything yields nothing.
	var n int
	_, err = tr.SearchCounted(world, func(Entry, []float64) bool { return true }, func(Entry, []float64) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("prune-all visited %d entries", n)
	}
	// Pruning subtrees left of x=500 leaves only right-side results.
	got := map[Ref]bool{}
	_, err = tr.SearchCounted(world,
		func(e Entry, _ []float64) bool { return e.Rect.Hi.X < 500 },
		func(e Entry, _ []float64) bool {
			got[e.Ref] = true
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if it.Rect.Hi.X >= 500 && !got[it.Ref] {
			t.Fatalf("right-side item %d missing", it.Ref)
		}
	}
}

func TestPagedNodeStoreRoundTrip(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemStore(), 64)
	store := NewPagedNodeStore(pool, 3)
	n, err := store.Alloc(true)
	if err != nil {
		t.Fatal(err)
	}
	n.Entries = []Entry{
		{Rect: geom.Rect{Lo: geom.Pt(1, 2), Hi: geom.Pt(3, 4)}, Ref: 77},
		{Rect: geom.Rect{Lo: geom.Pt(-5, -6), Hi: geom.Pt(-1, -2)}, Ref: -3},
	}
	n.Aux = [][]float64{{0.5, -1, 9}, {1, 2, 3}}
	if err := store.Update(n); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(n.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Leaf || len(got.Entries) != 2 {
		t.Fatalf("decoded node: leaf=%t entries=%d", got.Leaf, len(got.Entries))
	}
	if got.Entries[0].Ref != 77 || got.Entries[1].Ref != -3 {
		t.Fatalf("refs = %d, %d", got.Entries[0].Ref, got.Entries[1].Ref)
	}
	if !got.Entries[0].Rect.ApproxEqual(n.Entries[0].Rect) {
		t.Fatalf("rect mismatch: %v", got.Entries[0].Rect)
	}
	for i, v := range []float64{0.5, -1, 9} {
		if got.auxAt(0)[i] != v {
			t.Fatalf("aux mismatch: %v", got.auxAt(0))
		}
	}
	// Interior node round trip.
	in, err := store.Alloc(false)
	if err != nil {
		t.Fatal(err)
	}
	in.Entries = []Entry{{Rect: geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(9, 9)}, Ref: Ref(n.ID)}}
	in.Aux = [][]float64{{1, 1, 1}}
	if err := store.Update(in); err != nil {
		t.Fatal(err)
	}
	got2, err := store.Get(in.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Leaf || got2.Entries[0].Child() != n.ID {
		t.Fatalf("interior round trip: leaf=%t child=%d", got2.Leaf, got2.Entries[0].Child())
	}
}

func TestPagedTreeMatchesMemTree(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	items := randItems(rng, 3000, 1500)

	memTr, err := BulkLoad(NewMemNodeStore(), Config{}, items)
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(storage.NewMemStore(), 32)
	pagedTr, err := BulkLoad(NewPagedNodeStore(pool, 0), Config{}, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := pagedTr.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c := geom.Pt(rng.Float64()*1500, rng.Float64()*1500)
		q := geom.RectCentered(c, rng.Float64()*120, rng.Float64()*120)
		a, _, err := searchRefs(memTr, q)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := searchRefs(pagedTr, q)
		if err != nil {
			t.Fatal(err)
		}
		if !refsEqual(sortedRefs(a), sortedRefs(b)) {
			t.Fatalf("paged/mem mismatch on %v", q)
		}
	}
	if pool.Stats().LogicalReads == 0 {
		t.Fatal("paged tree did no page reads")
	}
}

func TestPagedTreeInsertDelete(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemStore(), 16)
	tr, err := BulkLoad(NewPagedNodeStore(pool, 0), Config{MaxEntries: 8, MinEntries: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	items := randItems(rng, 400, 200)
	for _, it := range items {
		if err := tr.Insert(it.Rect, it.Ref, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	for _, i := range rng.Perm(400)[:200] {
		ok, err := tr.Delete(items[i].Rect, items[i].Ref)
		if err != nil || !ok {
			t.Fatalf("paged delete: %t %v", ok, err)
		}
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 200 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestTreeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	items := randItems(rng, 2000, 1000)
	tr, err := BulkLoad(NewMemNodeStore(), Config{MaxEntries: 20, MinEntries: 4}, items)
	if err != nil {
		t.Fatal(err)
	}
	var nodes, leaves, entries, levels int
	var fill float64
	err = tr.Walk(func(n *Node, level int) error {
		nodes++
		fill += float64(len(n.Entries)) / float64(tr.Config().MaxEntries)
		levels = max(levels, level+1)
		if n.Leaf {
			leaves++
			entries += len(n.Entries)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if entries != 2000 || tr.Len() != 2000 || levels != tr.Height() {
		t.Fatalf("entries = %d, Len = %d, levels = %d, Height = %d", entries, tr.Len(), levels, tr.Height())
	}
	if leaves < 100 || leaves > 110 { // ceil(2000/20) = 100 + slack
		t.Fatalf("leaves = %d", leaves)
	}
	// STR packs nodes nearly full.
	if avg := fill / float64(nodes); avg < 0.8 {
		t.Fatalf("avg fill = %g; STR should pack tight", avg)
	}
}

func TestNodeAccessesMatchPoolLogicalReads(t *testing.T) {
	// Cross-validate the two independent I/O meters: for a paged tree,
	// one tree-level node access is exactly one buffer-pool logical
	// read during searches.
	rng := rand.New(rand.NewSource(67))
	items := randItems(rng, 2500, 1200)
	pool := storage.NewBufferPool(storage.NewMemStore(), 32)
	tr, err := BulkLoad(NewPagedNodeStore(pool, 0), Config{}, items)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		q := geom.RectCentered(
			geom.Pt(rng.Float64()*1200, rng.Float64()*1200),
			rng.Float64()*150, rng.Float64()*150)
		before := pool.Stats().LogicalReads
		_, treeCount, err := searchRefs(tr, q)
		if err != nil {
			t.Fatal(err)
		}
		poolCount := pool.Stats().LogicalReads - before
		if treeCount != poolCount {
			t.Fatalf("query %d: tree counted %d accesses, pool %d logical reads",
				i, treeCount, poolCount)
		}
	}
}

// TestInsertInfiniteRects: a tree fed infinite rectangles directly —
// every other one a point at (+Inf, +Inf), some spanning the whole
// plane — stays a valid tree, and every entry is found. An infinite
// rectangle's enlargements are NaN, so the quadratic split meets
// entries with no preference that compares.
func TestInsertInfiniteRects(t *testing.T) {
	inf := math.Inf(1)
	rng := rand.New(rand.NewSource(44))
	tr := newMemTree(t, smallCfg)
	for i := range 300 {
		r := geom.RectAt(geom.Pt(rng.Float64()*1000, rng.Float64()*1000))
		switch {
		case i%2 == 1:
			r = geom.RectAt(geom.Pt(inf, inf))
		case i%10 == 4:
			r = geom.Rect{Lo: geom.Pt(-inf, -inf), Hi: geom.Pt(inf, inf)}
		}
		if err := tr.Insert(r, Ref(i), nil); err != nil {
			t.Fatalf("insert %d (%v): %v", i, r, err)
		}
	}
	if err := tr.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	got, _, err := searchRefs(tr, geom.Rect{Lo: geom.Pt(-inf, -inf), Hi: geom.Pt(inf, inf)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 300 {
		t.Fatalf("a search of the whole plane found %d of 300 entries", len(got))
	}
}
