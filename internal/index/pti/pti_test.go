package pti

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/pdf"
	"repro/internal/storage"
	"repro/internal/uncertain"
)

var probs = uncertain.PaperCatalogProbs() // 0, 0.1, ..., 0.9

// makeObjects builds n uniform-pdf uncertain objects with random
// regions inside a world square.
func makeObjects(t testing.TB, rng *rand.Rand, n int, world float64) []*uncertain.Object {
	t.Helper()
	objs := make([]*uncertain.Object, n)
	for i := range objs {
		c := geom.Pt(rng.Float64()*world, rng.Float64()*world)
		region := geom.RectCentered(c, 1+rng.Float64()*20, 1+rng.Float64()*20)
		o, err := uncertain.NewObject(uncertain.ID(i), pdf.MustUniform(region), probs)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = o
	}
	return objs
}

// collectIDs runs one counted search and returns the ids it visited,
// sorted, and the node accesses it performed.
func collectIDs(t *testing.T, fn func(visit func(uncertain.ID) bool) (int64, error)) ([]uncertain.ID, int64) {
	t.Helper()
	var ids []uncertain.ID
	accesses, err := fn(func(id uncertain.ID) bool {
		ids = append(ids, id)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, accesses
}

// rangeSearch visits the ids of every object whose region intersects q.
func rangeSearch(ix *Index, q geom.Rect, visit func(uncertain.ID) bool) (int64, error) {
	return ix.RangeLeavesCounted(q, func(e rtree.Entry, _ []float64) bool {
		return visit(uncertain.ID(e.Ref))
	})
}

// thresholdSearch is the engine's constrained-query filter over the
// index: ThresholdLeavesCounted, with each leaf entry it visits decided
// by BoundPrunes on the entry's M-bound row.
func thresholdSearch(ix *Index, search, expanded geom.Rect, qp float64, visit func(uncertain.ID) bool) (int64, error) {
	row, m, ok := ix.MRow(qp)
	return ix.ThresholdLeavesCounted(search, expanded, qp, func(e rtree.Entry, aux []float64) bool {
		if ok && BoundPrunes(e.Rect, LeafBound(e, aux, row, m), expanded) {
			return true // pruned leaf entry; keep searching
		}
		return visit(uncertain.ID(e.Ref))
	})
}

func TestValidateProbs(t *testing.T) {
	if _, err := BulkLoad(rtree.NewMemNodeStore(), nil, nil); err == nil {
		t.Fatal("empty probs accepted")
	}
	if _, err := BulkLoad(rtree.NewMemNodeStore(), []float64{0, 1.5}, nil); err == nil {
		t.Fatal("out-of-range prob accepted")
	}
	if _, err := BulkLoad(rtree.NewMemNodeStore(), []float64{0.5, 0.5}, nil); err == nil {
		t.Fatal("duplicate prob accepted")
	}
	ix, err := BulkLoad(rtree.NewMemNodeStore(), []float64{0.4, 0.1, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Probs()
	if got[0] != 0 || got[1] != 0.1 || got[2] != 0.4 {
		t.Fatalf("probs not sorted: %v", got)
	}
}

func TestInsertRequiresCatalog(t *testing.T) {
	ix, err := BulkLoad(rtree.NewMemNodeStore(), probs, nil)
	if err != nil {
		t.Fatal(err)
	}
	region := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10, 10)}
	bare, err := uncertain.NewObject(1, pdf.MustUniform(region), nil) // no catalog
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(bare); err == nil {
		t.Fatal("object without catalog accepted")
	}
	// Catalog missing one index value.
	partial, err := uncertain.NewObject(2, pdf.MustUniform(region), []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(partial); err == nil {
		t.Fatal("object with partial catalog accepted")
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	objs := makeObjects(t, rng, 800, 1000)
	ix, err := BulkLoad(rtree.NewMemNodeStore(), probs, objs)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tree().Len() != 800 {
		t.Fatalf("Len = %d", ix.Tree().Len())
	}
	if err := ix.Tree().CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		q := geom.RectCentered(
			geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
			rng.Float64()*100, rng.Float64()*100)
		got, _ := collectIDs(t, func(v func(uncertain.ID) bool) (int64, error) { return rangeSearch(ix, q, v) })
		var want []uncertain.ID
		for _, o := range objs {
			if q.Intersects(o.Region()) {
				want = append(want, o.ID)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d, want %d", q, len(got), len(want))
		}
	}
}

func TestThresholdSearchNeverDropsQualified(t *testing.T) {
	// Soundness: every object whose true qualification mass within the
	// expanded region could reach qp must survive the threshold search.
	// We use the mass upper bound MassIn(Ui ∩ expanded) as ground
	// truth: if it is >= qp, the object must be returned.
	rng := rand.New(rand.NewSource(72))
	objs := makeObjects(t, rng, 600, 1000)
	byID := map[uncertain.ID]*uncertain.Object{}
	for _, o := range objs {
		byID[o.ID] = o
	}
	ix, err := BulkLoad(rtree.NewMemNodeStore(), probs, objs)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		u0 := geom.RectCentered(
			geom.Pt(rng.Float64()*1000, rng.Float64()*1000), 25, 25)
		w, h := 50.0, 50.0
		expanded := geom.ExpandedQuery(u0, w, h)
		qp := rng.Float64() * 0.9
		got := map[uncertain.ID]bool{}
		_, err := thresholdSearch(ix, expanded, expanded, qp, func(id uncertain.ID) bool {
			got[id] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range objs {
			mass := o.PDF.MassIn(o.Region().Intersect(expanded))
			if mass > qp+1e-9 && !got[o.ID] {
				t.Fatalf("trial %d: object %d with reachable mass %g > qp %g was pruned",
					trial, o.ID, mass, qp)
			}
		}
	}
}

func TestThresholdSearchPrunes(t *testing.T) {
	// Effectiveness: with a high threshold, strictly fewer candidates
	// than the plain range search.
	rng := rand.New(rand.NewSource(73))
	objs := makeObjects(t, rng, 1000, 1000)
	ix, err := BulkLoad(rtree.NewMemNodeStore(), probs, objs)
	if err != nil {
		t.Fatal(err)
	}
	u0 := geom.RectCentered(geom.Pt(500, 500), 30, 30)
	expanded := geom.ExpandedQuery(u0, 60, 60)

	all, _ := collectIDs(t, func(v func(uncertain.ID) bool) (int64, error) {
		return rangeSearch(ix, expanded, v)
	})
	strict, _ := collectIDs(t, func(v func(uncertain.ID) bool) (int64, error) {
		return thresholdSearch(ix, expanded, expanded, 0.9, v)
	})
	if len(all) == 0 {
		t.Skip("no candidates in range; unlucky layout")
	}
	if len(strict) >= len(all) {
		t.Fatalf("threshold search returned %d of %d candidates; expected pruning", len(strict), len(all))
	}
}

func TestThresholdSearchNodeLevelPruningSavesIO(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	objs := makeObjects(t, rng, 5000, 2000)
	ix, err := BulkLoad(rtree.NewMemNodeStore(), probs, objs)
	if err != nil {
		t.Fatal(err)
	}
	u0 := geom.RectCentered(geom.Pt(1000, 1000), 100, 100)
	expanded := geom.ExpandedQuery(u0, 200, 200)

	_, baseIO := collectIDs(t, func(v func(uncertain.ID) bool) (int64, error) {
		return rangeSearch(ix, expanded, v)
	})

	// Shrunken search region (stand-in for a Qp-expanded query) plus
	// bound pruning must not read more nodes.
	smaller := expanded.Expand(-80, -80)
	_, prunedIO := collectIDs(t, func(v func(uncertain.ID) bool) (int64, error) {
		return thresholdSearch(ix, smaller, expanded, 0.8, v)
	})
	if prunedIO > baseIO {
		t.Fatalf("threshold search I/O %d exceeds plain search %d", prunedIO, baseIO)
	}
}

func TestInsertDeleteCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	objs := makeObjects(t, rng, 300, 500)
	ix, err := BulkLoad(rtree.NewMemNodeStore(), probs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if record, err := ix.Insert(o); err != nil || !record {
			t.Fatalf("insert %d: leaf record %t, %v", o.ID, record, err)
		}
	}
	if err := ix.Tree().CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	for _, i := range rng.Perm(300)[:150] {
		ok, err := ix.Delete(objs[i].Region(), objs[i].ID)
		if err != nil || !ok {
			t.Fatalf("delete %d: %t %v", objs[i].ID, ok, err)
		}
	}
	if ix.Tree().Len() != 150 {
		t.Fatalf("Len = %d", ix.Tree().Len())
	}
	if err := ix.Tree().CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

func TestPrunedByBounds(t *testing.T) {
	region := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10, 10)}
	bound := uncertain.Bound{Left: 2, Right: 8, Bottom: 2, Top: 8}
	// Expanded query overlapping only the region's right sliver, right
	// of the right bound: prune.
	exp := geom.Rect{Lo: geom.Pt(8.5, 0), Hi: geom.Pt(20, 10)}
	if !BoundPrunes(region, bound, exp) {
		t.Fatal("right sliver should prune")
	}
	// Overlap spanning the center: keep.
	exp = geom.Rect{Lo: geom.Pt(4, 4), Hi: geom.Pt(6, 6)}
	if BoundPrunes(region, bound, exp) {
		t.Fatal("central overlap should not prune")
	}
	// Left sliver: prune.
	exp = geom.Rect{Lo: geom.Pt(-5, 0), Hi: geom.Pt(1.5, 10)}
	if !BoundPrunes(region, bound, exp) {
		t.Fatal("left sliver should prune")
	}
	// Top sliver: prune.
	exp = geom.Rect{Lo: geom.Pt(0, 9), Hi: geom.Pt(10, 30)}
	if !BoundPrunes(region, bound, exp) {
		t.Fatal("top sliver should prune")
	}
	// Disjoint: prune.
	exp = geom.Rect{Lo: geom.Pt(50, 50), Hi: geom.Pt(60, 60)}
	if !BoundPrunes(region, bound, exp) {
		t.Fatal("disjoint should prune")
	}
}

func TestGaussianBoundsTighter(t *testing.T) {
	// A Gaussian object's p-bounds are tighter than a uniform's over
	// the same region, so PTI should prune Gaussian objects more often.
	region := geom.RectCentered(geom.Pt(100, 100), 30, 30)
	g, err := pdf.NewTruncGaussian(region, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	gObj, err := uncertain.NewObject(1, g, probs)
	if err != nil {
		t.Fatal(err)
	}
	uObj, err := uncertain.NewObject(2, pdf.MustUniform(region), probs)
	if err != nil {
		t.Fatal(err)
	}
	gAux, err := encodeBounds(gObj, probs)
	if err != nil {
		t.Fatal(err)
	}
	uAux, err := encodeBounds(uObj, probs)
	if err != nil {
		t.Fatal(err)
	}
	// An expanded region covering the left 35% of the region (up to
	// x = 91). The uniform keeps mass 0.35 > 0.3 there and survives;
	// the Gaussian keeps only ~0.18 (its left 0.3-bound sits near
	// 100 - 0.52σ ≈ 94.7, right of 91) and prunes.
	exp := geom.Rect{Lo: geom.Pt(70, 70), Hi: geom.Pt(91, 130)}
	slot := 3 // probs[3] = 0.3
	if !BoundPrunes(region, StoredRow(gAux, slot, probs[slot]), exp) {
		t.Fatal("Gaussian object should prune at qp=0.3 sliver")
	}
	if BoundPrunes(region, StoredRow(uAux, slot, probs[slot]), exp) {
		t.Fatal("uniform object should survive at qp=0.3 sliver")
	}
}

// TestMemLeafFitsCheckpointPage: a leaf of an index in memory is
// written to a checkpoint as one page of (rectangle, id) cells.
func TestMemLeafFitsCheckpointPage(t *testing.T) {
	if cells := rtree.CapacityForPage(0); MemLeafEntries > cells {
		t.Fatalf("MemLeafEntries = %d, a page holds %d cells", MemLeafEntries, cells)
	}
	ix, err := BulkLoad(rtree.NewMemNodeStore(), probs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := ix.Tree().Config(); cfg.LeafMaxEntries != MemLeafEntries || cfg.MaxEntries != rtree.CapacityForPage(AuxLen(len(probs))) {
		t.Fatalf("in-memory index capacities: leaf %d, interior %d", cfg.LeafMaxEntries, cfg.MaxEntries)
	}
	paged, err := BulkLoad(rtree.NewPagedNodeStore(storage.NewBufferPool(storage.NewMemStore(), 8), AuxLen(len(probs))), probs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := paged.Tree().Config(); cfg.LeafMaxEntries != cfg.MaxEntries {
		t.Fatalf("paged index: leaf capacity %d, interior %d", cfg.LeafMaxEntries, cfg.MaxEntries)
	}
}
