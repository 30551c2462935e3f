package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/index/pti"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

func mustObject(t testing.TB, id uncertain.ID, c geom.Point, u float64) *uncertain.Object {
	t.Helper()
	o, err := uncertain.NewObject(id, pdf.MustUniform(geom.RectCentered(c, u, u)), uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestApplyUpdatesReport checks the batch ingestion semantics: upserts
// insert or move, deletes of absent ids count as Missing, failures do
// not abort the batch, dirty rectangles cover old and new bounds, and
// the version advances once per batch.
func TestApplyUpdatesReport(t *testing.T) {
	e := testWorld(t, 50, 50, 41)
	v0 := e.Version()

	rep := e.ApplyUpdates([]Update{
		{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: 900, Loc: geom.Pt(100, 100)}},
		{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: 900, Loc: geom.Pt(200, 200)}}, // move
		{Op: OpUpsertObject, Object: mustObject(t, 901, geom.Pt(300, 300), 10)},
		{Op: OpUpsertObject, Object: mustObject(t, 901, geom.Pt(320, 300), 10)}, // re-report
		{Op: OpDeletePoint, ID: 77777}, // absent
		{Op: OpUpsertObject},           // nil object: error
		{Op: OpDeleteObject, ID: 901},
	})
	if rep.Applied != 5 {
		t.Fatalf("Applied = %d, want 5", rep.Applied)
	}
	if rep.Missing != 1 {
		t.Fatalf("Missing = %d, want 1", rep.Missing)
	}
	if len(rep.Errors) != 1 || rep.Errors[0].Index != 5 {
		t.Fatalf("Errors = %+v, want one at index 5", rep.Errors)
	}
	if rep.Version != v0+1 || e.Version() != v0+1 {
		t.Fatalf("version = %d (report %d), want %d", e.Version(), rep.Version, v0+1)
	}
	// The move's dirty set must cover both the old and the new spot.
	for _, p := range []geom.Point{geom.Pt(100, 100), geom.Pt(200, 200), geom.Pt(300, 300), geom.Pt(320, 300)} {
		if !rep.Touches(geom.RectCentered(p, 1, 1)) {
			t.Fatalf("dirty set misses %v", p)
		}
	}
	if rep.Touches(geom.RectCentered(geom.Pt(5000, 5000), 1, 1)) {
		t.Fatal("dirty set touches an untouched region")
	}
	// One typed record per applied update, in batch order: the failed
	// update and the absent delete leave none.
	at := func(x, y float64) geom.Rect { return geom.RectAt(geom.Pt(x, y)) }
	box := func(x, y float64) geom.Rect { return geom.RectCentered(geom.Pt(x, y), 10, 10) }
	want := []Change{
		{Table: TablePoints, ID: 900, New: at(100, 100), HasNew: true},
		{Table: TablePoints, ID: 900, Old: at(100, 100), HasOld: true, New: at(200, 200), HasNew: true},
		{Table: TableObjects, ID: 901, New: box(300, 300), HasNew: true},
		{Table: TableObjects, ID: 901, Old: box(300, 300), HasOld: true, New: box(320, 300), HasNew: true},
		{Table: TableObjects, ID: 901, Old: box(320, 300), HasOld: true},
	}
	if !reflect.DeepEqual(rep.Changes, want) {
		t.Fatalf("Changes = %+v\nwant %+v", rep.Changes, want)
	}
	if got := rep.Dirty(); len(got) != 7 {
		t.Fatalf("Dirty() has %d rectangles, want 7", len(got))
	}
	if p, ok := e.Point(900); !ok || p.Loc != geom.Pt(200, 200) {
		t.Fatalf("point 900 = %+v, %t", p, ok)
	}
	if _, ok := e.Object(901); ok {
		t.Fatal("object 901 still present after delete")
	}

	// An all-missing batch commits nothing and must not bump the
	// version.
	rep = e.ApplyUpdates([]Update{{Op: OpDeleteObject, ID: 77778}})
	if rep.Applied != 0 || rep.Version != v0+1 {
		t.Fatalf("no-op batch: applied %d version %d", rep.Applied, rep.Version)
	}
}

// TestReplaceObjectFailureRestoresOld: an upsert whose insert the PTI
// rejects (catalog not covering the engine's probability values) must
// leave the old version in place and must not advance the engine
// version.
func TestReplaceObjectFailureRestoresOld(t *testing.T) {
	e := testWorld(t, 0, 20, 42)
	old, ok := e.Object(3)
	if !ok {
		t.Fatal("object 3 missing from test world")
	}
	bad, err := uncertain.NewObject(3, old.PDF, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	v0 := e.Version()
	rep := e.ApplyUpdates([]Update{{Op: OpUpsertObject, Object: bad}})
	if rep.Applied != 0 || len(rep.Errors) != 1 {
		t.Fatalf("batch replace failure: %+v", rep)
	}
	if e.Version() != v0 || rep.Version != v0 {
		t.Fatalf("failed replace advanced version %d -> %d", v0, e.Version())
	}
	if got, ok := e.Object(3); !ok || !sameObject(got, old) {
		t.Fatalf("old object not restored after failed replace: %v %t", got, ok)
	}
}

// sameObject reports whether two uniform objects are equal by content:
// the same id, a uniform pdf over the same rectangle and the same
// catalog rows, bit for bit. A leaf record's object is rebuilt on each
// read, so pointer equality says nothing.
func sameObject(a, b *uncertain.Object) bool {
	ra, okA := pdf.UniformSupport(a.PDF)
	rb, okB := pdf.UniformSupport(b.PDF)
	if a.ID != b.ID || !okA || !okB || !rectBitsEqual(ra, rb) || a.Catalog.Len() != b.Catalog.Len() {
		return false
	}
	for i, row := range a.Catalog.Bounds() {
		if !pti.SameBound(row, b.Catalog.Bounds()[i]) {
			return false
		}
	}
	return true
}

// TestGuardRegion: a range request's guard is the index probe region —
// the full Minkowski sum for unconstrained queries and for
// MethodBasic, the (smaller) Qp-expanded region for threshold queries.
func TestGuardRegion(t *testing.T) {
	iss := testIssuer(t, geom.Pt(500, 500), 50)
	q := Query{Issuer: iss, W: 100, H: 100}

	g, err := requestFor(KindUncertain, q, EvalOptions{}).GuardRegion()
	if err != nil {
		t.Fatal(err)
	}
	if g != q.Expanded() {
		t.Fatalf("unconstrained guard %v != expanded %v", g, q.Expanded())
	}

	q.Threshold = 0.6
	g, err = requestFor(KindPoints, q, EvalOptions{}).GuardRegion()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := SearchRegion(q)
	if g != want {
		t.Fatalf("threshold guard %v != search region %v", g, want)
	}
	if !q.Expanded().ContainsRect(g) {
		t.Fatalf("guard %v escapes the Minkowski sum %v", g, q.Expanded())
	}
	g, err = requestFor(KindUncertain, q, EvalOptions{Method: MethodBasic}).GuardRegion()
	if err != nil {
		t.Fatal(err)
	}
	if g != q.Expanded() {
		t.Fatalf("MethodBasic guard %v != expanded %v", g, q.Expanded())
	}

	if _, err := (Request{}).GuardRegion(); err == nil {
		t.Fatal("invalid request accepted")
	}
}

// TestConcurrentUpdatesAndQueries drives ApplyUpdates batches, single
// mutators, and streaming EvaluateAll fan-outs simultaneously. Under
// -race this is the writer/reader coordination contract: no data
// races, no torn states (every delivered result is internally
// consistent), and afterwards the engine agrees with a serial replay
// of the final state.
func TestConcurrentUpdatesAndQueries(t *testing.T) {
	mem, paged := concurrencyWorld(t, 617)
	for name, e := range map[string]*Engine{"mem": mem, "paged": paged} {
		e := e
		t.Run(name, func(t *testing.T) {
			batch := mixedRequests(concurrencyQueries(t, 12, 618), EvalOptions{})
			var wg sync.WaitGroup
			stop := make(chan struct{})

			// Writers: one batching, one issuing single mutations.
			wg.Add(2)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(619))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					var ups []Update
					for j := 0; j < 8; j++ {
						id := uncertain.ID(rng.Intn(2000))
						c := geom.Pt(rng.Float64()*2000, rng.Float64()*2000)
						o, err := uncertain.NewObject(id, pdf.MustUniform(geom.RectCentered(c, 5, 5)), uncertain.PaperCatalogProbs())
						if err != nil {
							t.Error(err)
							return
						}
						ups = append(ups, Update{Op: OpUpsertObject, Object: o})
					}
					if rep := e.ApplyUpdates(ups); len(rep.Errors) > 0 {
						t.Errorf("batch errors: %v", rep.Errors)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(620))
				for {
					select {
					case <-stop:
						return
					default:
					}
					id := uncertain.ID(rng.Intn(2500))
					p := uncertain.PointObject{ID: id, Loc: geom.Pt(rng.Float64()*2000, rng.Float64()*2000)}
					if rep := e.ApplyUpdates([]Update{{Op: OpUpsertPoint, Point: p}}); len(rep.Errors) > 0 {
						t.Errorf("move: %v", rep.Errors[0].Err)
						return
					}
				}
			}()

			// Readers: a few rounds of streaming fan-outs while the
			// writers churn.
			for round := 0; round < 3; round++ {
				err := e.EvaluateAll(context.Background(), batch, AllOptions{Workers: 4, Seed: int64(round)},
					func(i int, resp Response, err error) {
						if err != nil {
							t.Errorf("request %d: %v", i, err)
							return
						}
						for _, m := range resp.Matches {
							if m.P <= 0 || m.P > 1 {
								t.Errorf("request %d: probability %g out of range", i, m.P)
							}
						}
					})
				if err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()

			// Quiesced: a concurrent fan-out must now equal the serial one.
			want, wantErrs := collectAll(t, e.EvaluateAll, batch, AllOptions{Seed: 88})
			got, errs := collectAll(t, e.EvaluateAll, batch, AllOptions{Workers: 4, Seed: 88})
			for i := range batch {
				if wantErrs[i] != nil || errs[i] != nil {
					t.Fatalf("request %d: err %v / %v", i, wantErrs[i], errs[i])
				}
				checkSameResult(t, batch[i].Kind.String(), want[i], got[i])
			}
		})
	}
}

// TestMaxSamplesBudget: a forced-Monte-Carlo query under a tiny budget
// must return ErrSampleBudget, while an ample budget reproduces the
// unbounded result bit for bit.
func TestMaxSamplesBudget(t *testing.T) {
	e := testWorld(t, 0, 400, 43)
	iss := testIssuer(t, geom.Pt(500, 500), 60)
	q := Query{Issuer: iss, W: 200, H: 200, Threshold: 0.2}
	base := EvalOptions{Object: ObjectEvalConfig{ForceMonteCarlo: true, MCSamples: 256}}

	full, err := e.EvaluateUncertain(q, base)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cost.SamplesUsed == 0 {
		t.Fatal("workload drew no samples; budget test is vacuous")
	}

	opts := base
	opts.MaxSamples = full.Cost.SamplesUsed / 2
	if _, err := e.EvaluateUncertain(q, opts); !errors.Is(err, ErrSampleBudget) {
		t.Fatalf("err = %v, want ErrSampleBudget", err)
	}
	opts.MaxSamples = full.Cost.SamplesUsed
	res, err := e.EvaluateUncertain(q, opts)
	if err != nil {
		t.Fatalf("exact budget: %v", err)
	}
	checkSameResult(t, "budget==usage", full, res)

	// The point Monte-Carlo path honors the same budget.
	ep := testWorld(t, 400, 0, 44)
	pq := Query{Issuer: iss, W: 200, H: 200, Threshold: 0.2}
	popts := EvalOptions{PointMCSamples: 128}
	pres, err := ep.EvaluatePoints(pq, popts)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Cost.SamplesUsed == 0 {
		t.Fatal("point workload drew no samples")
	}
	popts.MaxSamples = pres.Cost.SamplesUsed / 2
	if _, err := ep.EvaluatePoints(pq, popts); !errors.Is(err, ErrSampleBudget) {
		t.Fatalf("points: err = %v, want ErrSampleBudget", err)
	}
}

// TestPointAdaptiveMC: adaptive early termination of Monte-Carlo point
// refinement must keep the qualifying set of the full-budget run (the
// streams are per candidate, so the comparison is exact) while
// spending measurably fewer samples on clear-cut candidates.
func TestPointAdaptiveMC(t *testing.T) {
	e := testWorld(t, 1500, 0, 45)
	for _, qp := range []float64{0.15, 0.5, 0.85} {
		iss := testIssuer(t, geom.Pt(400, 600), 70)
		q := Query{Issuer: iss, W: 250, H: 250, Threshold: qp}

		full, err := e.evaluateSeeded(KindPoints, q, EvalOptions{
			PointMCSamples: 1024,
			Object:         ObjectEvalConfig{Adaptive: AdaptiveOff},
		}, 7)
		if err != nil {
			t.Fatal(err)
		}
		adpt, err := e.evaluateSeeded(KindPoints, q, EvalOptions{PointMCSamples: 1024}, 7)
		if err != nil {
			t.Fatal(err)
		}
		if full.Cost.Refined == 0 {
			t.Fatalf("qp=%g: no candidates refined", qp)
		}

		fullSet := matchesToMap(full.Matches)
		adptSet := matchesToMap(adpt.Matches)
		if len(fullSet) != len(adptSet) {
			t.Fatalf("qp=%g: qualifying sets differ: %d vs %d", qp, len(fullSet), len(adptSet))
		}
		for id := range fullSet {
			if _, ok := adptSet[id]; !ok {
				t.Fatalf("qp=%g: point %d qualifies full-budget but not adaptively", qp, id)
			}
		}
		if adpt.Cost.SamplesUsed >= full.Cost.SamplesUsed {
			t.Fatalf("qp=%g: adaptive drew %d samples, full %d — no saving",
				qp, adpt.Cost.SamplesUsed, full.Cost.SamplesUsed)
		}
		if adpt.Cost.EarlyStopped == 0 {
			t.Fatalf("qp=%g: no candidate early-stopped", qp)
		}
		if full.Cost.EarlyStopped != 0 || full.Cost.SamplesUsed != int64(full.Cost.Refined)*1024 {
			t.Fatalf("qp=%g: AdaptiveOff run early-stopped (%d) or mis-counted samples (%d)",
				qp, full.Cost.EarlyStopped, full.Cost.SamplesUsed)
		}
	}
}
