package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/pdf"
	"repro/internal/storage"
	"repro/internal/uncertain"
)

// TestPagedEngineMatchesMemory runs the same query workload against an
// engine whose indexes live on serialized 4 KiB pages behind a small
// buffer pool, and against the default in-memory engine. Results must
// be identical; the paged engine must report physical I/O.
func TestPagedEngineMatchesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	points := make([]uncertain.PointObject, 3000)
	for i := range points {
		points[i] = uncertain.PointObject{
			ID:  uncertain.ID(i),
			Loc: geom.Pt(rng.Float64()*2000, rng.Float64()*2000),
		}
	}
	objects := make([]*uncertain.Object, 2500)
	for i := range objects {
		c := geom.Pt(rng.Float64()*2000, rng.Float64()*2000)
		o, err := uncertain.NewObject(uncertain.ID(i),
			pdf.MustUniform(geom.RectCentered(c, 2+rng.Float64()*30, 2+rng.Float64()*30)),
			uncertain.PaperCatalogProbs())
		if err != nil {
			t.Fatal(err)
		}
		objects[i] = o
	}

	memEng, err := NewEngine(points, objects, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pointPool := storage.NewBufferPool(storage.NewMemStore(), 16)
	uncPool := storage.NewBufferPool(storage.NewMemStore(), 16)
	pagedEng, err := NewEngine(points, objects, EngineOptions{
		PointNodeStore:     rtree.NewPagedNodeStore(pointPool, 0),
		UncertainNodeStore: rtree.NewPagedNodeStore(uncPool, 4*len(uncertain.PaperCatalogProbs())),
	})
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 10; trial++ {
		iss := testIssuer(t, geom.Pt(rng.Float64()*2000, rng.Float64()*2000), 80)
		qp := 0.0
		if trial%2 == 1 {
			qp = 0.4
		}
		q := Query{Issuer: iss, W: 150, H: 150, Threshold: qp}

		memP, err := memEng.EvaluatePoints(q, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pagP, err := pagedEng.EvaluatePoints(q, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		compareMatches(t, "points", memP.Matches, pagP.Matches)

		memU, err := memEng.EvaluateUncertain(q, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pagU, err := pagedEng.EvaluateUncertain(q, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		compareMatches(t, "uncertain", memU.Matches, pagU.Matches)
	}
	if uncPool.Stats().PhysicalReads == 0 {
		t.Fatal("paged engine did no physical reads through a 16-page pool")
	}
}

func compareMatches(t *testing.T, label string, a, b []Match) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d matches", label, len(a), len(b))
	}
	am, bm := matchesToMap(a), matchesToMap(b)
	for id, p := range am {
		if !approx(bm[id], p, 1e-12) {
			t.Fatalf("%s: object %d: %g vs %g", label, id, p, bm[id])
		}
	}
}

// TestConcurrentQueries exercises read-only engine use from many
// goroutines (meaningful under -race): searches share the index and
// the atomic access counters, each goroutine with its own Rng.
func TestConcurrentQueries(t *testing.T) {
	e := testWorld(t, 2000, 2000, 402)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				iss, err := uncertain.NewObject(-1,
					pdf.MustUniform(geom.RectCentered(
						geom.Pt(rng.Float64()*1000, rng.Float64()*1000), 40, 40)),
					uncertain.PaperCatalogProbs())
				if err != nil {
					errs <- err
					return
				}
				q := Query{Issuer: iss, W: 80, H: 80, Threshold: 0.3}
				if _, err := e.evaluateSeeded(KindPoints, q, EvalOptions{}, seed+int64(i)); err != nil {
					errs <- err
					return
				}
				if _, err := e.evaluateSeeded(KindUncertain, q, EvalOptions{}, seed+int64(i)); err != nil {
					errs <- err
					return
				}
			}
		}(int64(500 + w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
