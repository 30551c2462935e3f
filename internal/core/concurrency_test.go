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

// concurrencyWorld builds the same dataset as an in-memory engine and a
// paged engine (4 KiB pages behind small buffer pools), for tests that
// must agree across storage regimes.
func concurrencyWorld(t testing.TB, seed int64) (mem, paged *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	points := make([]uncertain.PointObject, 2500)
	for i := range points {
		points[i] = uncertain.PointObject{
			ID:  uncertain.ID(i),
			Loc: geom.Pt(rng.Float64()*2000, rng.Float64()*2000),
		}
	}
	objects := make([]*uncertain.Object, 2000)
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

	mem, err := NewEngine(points, objects, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	paged, err = NewEngine(points, objects, EngineOptions{
		PointNodeStore:     rtree.NewPagedNodeStore(storage.NewBufferPool(storage.NewMemStore(), 24), 0),
		UncertainNodeStore: rtree.NewPagedNodeStore(storage.NewBufferPool(storage.NewMemStore(), 24), 4*len(uncertain.PaperCatalogProbs())),
	})
	if err != nil {
		t.Fatal(err)
	}
	return mem, paged
}

func concurrencyQueries(t testing.TB, n int, seed int64) []Query {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, n)
	for i := range out {
		iss := testIssuer(t, geom.Pt(rng.Float64()*2000, rng.Float64()*2000), 60)
		qp := 0.0
		if i%2 == 1 {
			qp = 0.4
		}
		out[i] = Query{Issuer: iss, W: 160, H: 160, Threshold: qp}
	}
	return out
}

// mixedRequests turns queries into a mixed workload under opts: every
// third a points request, the rest uncertain.
func mixedRequests(queries []Query, opts EvalOptions) []Request {
	reqs := make([]Request, len(queries))
	for i, q := range queries {
		kind := KindUncertain
		if i%3 == 0 {
			kind = KindPoints
		}
		reqs[i] = requestFor(kind, q, opts)
	}
	return reqs
}

// TestConcurrentQueriesMatchSerial runs many simultaneous
// EvaluatePoints / EvaluateUncertain calls over the in-memory and the
// paged engine and asserts that every concurrent result — matches and
// the per-query Cost counters — is identical to the serial baseline
// for the same query. Run under -race this is the core guarantee of
// the concurrent read path: no query perturbs another's answer or
// accounting, even through a shared buffer pool.
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	mem, paged := concurrencyWorld(t, 601)
	queries := concurrencyQueries(t, 24, 602)

	type baseline struct {
		points    Result
		uncertain Result
	}
	for name, e := range map[string]*Engine{"mem": mem, "paged": paged} {
		e := e
		t.Run(name, func(t *testing.T) {
			serial := make([]baseline, len(queries))
			for i, q := range queries {
				rp, err := e.EvaluatePoints(q, EvalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				ru, err := e.EvaluateUncertain(q, EvalOptions{})
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = baseline{points: rp, uncertain: ru}
			}

			const workers = 8
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(wkr int) {
					defer wg.Done()
					for rep := 0; rep < 3; rep++ {
						i := (wkr + rep*workers) % len(queries)
						q := queries[i]
						rp, err := e.evaluateSeeded(KindPoints, q, EvalOptions{}, int64(900+wkr))
						if err != nil {
							errs <- err
							return
						}
						ru, err := e.evaluateSeeded(KindUncertain, q, EvalOptions{}, int64(900+wkr))
						if err != nil {
							errs <- err
							return
						}
						checkSameResult(t, "points", serial[i].points, rp)
						checkSameResult(t, "uncertain", serial[i].uncertain, ru)
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// checkSameResult asserts result equality including the per-query cost
// counters (Duration excepted, which is wall-clock). It only uses
// Errorf, so it is safe to call from worker goroutines.
func checkSameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	if len(want.Matches) != len(got.Matches) {
		t.Errorf("%s: %d vs %d matches", label, len(got.Matches), len(want.Matches))
		return
	}
	for i := range want.Matches {
		if want.Matches[i] != got.Matches[i] {
			t.Errorf("%s: match %d: %+v vs %+v", label, i, got.Matches[i], want.Matches[i])
			return
		}
	}
	w, g := want.Cost, got.Cost
	w.Duration, g.Duration = 0, 0
	if w != g {
		t.Errorf("%s: concurrent cost %+v differs from serial %+v", label, g, w)
	}
}

// TestEvaluateBatchDeterministic asserts that an EvaluateAll fan-out
// returns bit-identical results regardless of the worker count — each
// request draws from a source derived from its index, not from its
// worker — over both storage regimes, with mixed point/uncertain kinds.
func TestEvaluateBatchDeterministic(t *testing.T) {
	mem, paged := concurrencyWorld(t, 603)
	reqs := mixedRequests(concurrencyQueries(t, 20, 604), EvalOptions{})

	for name, e := range map[string]*Engine{"mem": mem, "paged": paged} {
		e := e
		t.Run(name, func(t *testing.T) {
			serial, serialErrs := collectAll(t, e.EvaluateAll, reqs, AllOptions{Seed: 77})
			for workers := 2; workers <= 4; workers++ {
				par, errs := collectAll(t, e.EvaluateAll, reqs, AllOptions{Workers: workers, Seed: 77})
				for i := range par {
					if errs[i] != nil || serialErrs[i] != nil {
						t.Fatalf("workers=%d request %d: err %v / %v", workers, i, errs[i], serialErrs[i])
					}
					checkSameResult(t, reqs[i].Kind.String(), serial[i], par[i])
				}
			}
		})
	}
}

// TestConcurrentMixedWorkload drives an engine fan-out, single-request
// evaluations, and a pinned snapshot's fan-out simultaneously against
// one paged engine — the serving shape the engine documents as safe.
// It is primarily a -race workout; results are sanity-checked against a
// serial baseline.
func TestConcurrentMixedWorkload(t *testing.T) {
	_, paged := concurrencyWorld(t, 605)
	queries := concurrencyQueries(t, 12, 606)
	reqs := make([]Request, len(queries))
	for i, q := range queries {
		reqs[i] = requestFor(KindUncertain, q, EvalOptions{})
	}
	serial, _ := collectAll(t, paged.EvaluateAll, reqs, AllOptions{})
	snap := paged.Snapshot()
	defer snap.Close()

	check := func(label string, out []Result, errs []error) {
		for i := range out {
			if errs[i] != nil {
				t.Errorf("%s request %d: %v", label, i, errs[i])
				continue
			}
			checkSameResult(t, label, serial[i], out[i])
		}
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		out, errs := collectAll(t, paged.EvaluateAll, reqs, AllOptions{Workers: 4})
		check("fan-out", out, errs)
	}()
	go func() {
		defer wg.Done()
		for i, q := range queries {
			r, err := paged.evaluateSeeded(KindUncertain, q, EvalOptions{}, 31)
			if err != nil {
				t.Error(err)
				return
			}
			checkSameResult(t, "single", serial[i], r)
		}
	}()
	go func() {
		defer wg.Done()
		out, errs := collectAll(t, snap.EvaluateAll, reqs, AllOptions{Workers: 2})
		check("snapshot fan-out", out, errs)
	}()
	wg.Wait()
}
