package monitor

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// monitorWorld builds a deterministic engine: nPoints point objects
// and nObjects uniform uncertain objects scattered over extent², with
// uniform pdfs so every evaluation is closed-form (bit-exact, no
// sampling) — the regime the replay property tests compare in.
func monitorWorld(t testing.TB, nPoints, nObjects int, extent float64, seed int64) *core.Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	points := make([]uncertain.PointObject, nPoints)
	for i := range points {
		points[i] = uncertain.PointObject{
			ID:  uncertain.ID(i),
			Loc: geom.Pt(rng.Float64()*extent, rng.Float64()*extent),
		}
	}
	objects := make([]*uncertain.Object, nObjects)
	for i := range objects {
		c := geom.Pt(rng.Float64()*extent, rng.Float64()*extent)
		o, err := uncertain.NewObject(uncertain.ID(i),
			pdf.MustUniform(geom.RectCentered(c, 2+rng.Float64()*20, 2+rng.Float64()*20)),
			uncertain.PaperCatalogProbs())
		if err != nil {
			t.Fatal(err)
		}
		objects[i] = o
	}
	e, err := core.NewEngine(points, objects, core.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func monitorIssuer(t testing.TB, c geom.Point, u float64) *uncertain.Object {
	t.Helper()
	iss, err := uncertain.NewObject(-1, pdf.MustUniform(geom.RectCentered(c, u, u)), uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	return iss
}

// moveObject returns an upsert re-reporting object id, uniform pdf, at
// a new center.
func moveObject(t testing.TB, id uncertain.ID, c geom.Point, u float64) core.Update {
	t.Helper()
	return upsertObject(t, id, 0, c, u)
}

// applyDelta replays one delta onto a qualifying-set map (the rule
// documented on Delta).
func applyDelta(set map[uncertain.ID]float64, d Delta) {
	for _, id := range d.Left {
		delete(set, id)
	}
	for _, m := range d.Entered {
		set[m.ID] = m.P
	}
	for _, m := range d.Updated {
		set[m.ID] = m.P
	}
}

// drain pops every currently queued delta without blocking.
func drain(t *testing.T, sub *Subscription) []Delta {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out []Delta
	for {
		d, err := sub.Next(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, ErrClosed) {
				return out
			}
			t.Fatal(err)
		}
		out = append(out, d)
	}
}

// reqOf adapts a query and kind to the standing Request the monitor
// registers.
func reqOf(q core.Query, kind core.Kind) core.Request {
	return core.Request{Kind: kind, Issuer: q.Issuer, W: q.W, H: q.H, Threshold: q.Threshold}
}

// freshSet evaluates the standing request from scratch and returns
// its qualifying set.
func freshSet(t *testing.T, eng *core.Engine, req core.Request) map[uncertain.ID]float64 {
	t.Helper()
	resp, err := eng.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[uncertain.ID]float64, len(resp.Matches))
	for _, m := range resp.Matches {
		set[m.ID] = m.P
	}
	return set
}

func sameSet(a, b map[uncertain.ID]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, p := range a {
		if q, ok := b[id]; !ok || p != q {
			return false
		}
	}
	return true
}

// testPDF builds a pdf over the square of half extent u centered at c:
// uniform for variant 0, otherwise a disc, grid or mixture — the
// non-separable shapes whose refinement is Monte-Carlo.
func testPDF(t testing.TB, variant int, c geom.Point, u float64) pdf.PDF {
	t.Helper()
	region := geom.RectCentered(c, u, u)
	var p pdf.PDF
	var err error
	switch variant % 4 {
	case 0:
		p = pdf.MustUniform(region)
	case 1:
		p, err = pdf.NewDisc(c, u, 12)
	case 2:
		p, err = pdf.NewGrid(region, 2, 2, []float64{1, 2, 3, 4})
	default:
		left := geom.Rect{Lo: region.Lo, Hi: geom.Pt(c.X, region.Hi.Y)}
		p, err = pdf.NewMixture([]pdf.PDF{pdf.MustUniform(left), pdf.MustUniform(region)}, []float64{1, 2})
	}
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// upsertObject returns an upsert (re-)reporting object id with the
// given pdf variant at a new center.
func upsertObject(t testing.TB, id uncertain.ID, variant int, c geom.Point, u float64) core.Update {
	t.Helper()
	o, err := uncertain.NewObject(id, testPDF(t, variant, c, u), uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	return core.Update{Op: core.OpUpsertObject, Object: o}
}

// TestMonitorDeltaReplayMatchesFullEvaluation is the subsystem's
// correctness property: for every standing query, replaying its delta
// stream over a randomized update trace reconstructs — bit-exactly —
// the qualifying set a from-scratch evaluation of
// Subscription.Request() produces after every batch. Range queries are
// maintained per object, so this is the proof that patching the cached
// set with the re-qualified movers equals re-evaluating the whole
// query — for closed-form refinement, for non-separable pdfs refined by
// Monte-Carlo with adaptive early stop, and for Monte-Carlo forced over
// uniform pdfs — and, because skipped queries emit no delta, that
// guard filtering admits no false negatives. The trace is localized so
// the filter demonstrably fires, and salted with the awkward batch
// shapes: an id updated several times, delete-then-reinsert, and moves
// that cross a guard boundary in either direction.
func TestMonitorDeltaReplayMatchesFullEvaluation(t *testing.T) {
	const (
		extent   = 4000.0
		nPoints  = 600
		nObjects = 800
	)
	cases := []struct {
		name     string
		variants int // pdf shapes in rotation: 1 = uniform only
		opts     core.EvalOptions
	}{
		{name: "closed-form", variants: 1},
		{name: "non-separable", variants: 4,
			opts: core.EvalOptions{Object: core.ObjectEvalConfig{MCSamples: 300}}},
		{name: "forced-monte-carlo", variants: 1,
			opts: core.EvalOptions{PointMCSamples: 300, Object: core.ObjectEvalConfig{ForceMonteCarlo: true, MCSamples: 300}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := monitorWorld(t, nPoints, nObjects, extent, 50)
			m := New(eng, Config{Workers: 2, MaxPending: -1, Options: tc.opts})

			// Standing queries in four well-separated neighborhoods,
			// mixed targets and thresholds.
			type standing struct {
				sub    *Subscription
				replay map[uncertain.ID]float64
			}
			var regs []*standing
			centers := []geom.Point{geom.Pt(600, 600), geom.Pt(2000, 2000), geom.Pt(3400, 3400), geom.Pt(600, 3400)}
			thresholds := []float64{0, 0.35, 0.35, 0.9}
			for i, c := range centers {
				q := core.Query{Issuer: monitorIssuer(t, c, 60), W: 220, H: 220, Threshold: thresholds[i]}
				target := core.KindUncertain
				if i == 2 {
					target = core.KindPoints
				}
				sub, err := m.Register(reqOf(q, target))
				if err != nil {
					t.Fatal(err)
				}
				if !sub.Request().Decomposable() || sub.Request().Seed == 0 {
					t.Fatalf("sub %d: request %+v is not a seeded decomposable one", i, sub.Request())
				}
				reg := &standing{sub: sub, replay: map[uncertain.ID]float64{}}
				for _, d := range drain(t, sub) {
					applyDelta(reg.replay, d) // the registration snapshot
				}
				regs = append(regs, reg)
			}

			rng := rand.New(rand.NewSource(51))
			for batchNo := 0; batchNo < 60; batchNo++ {
				// Each batch churns one neighborhood: moves, point hops,
				// deletes, inserts — localized so distant guards are
				// skipped.
				hub := centers[rng.Intn(len(centers))]
				guard := regs[0].sub.Guard()
				reach := (guard.Hi.X - guard.Lo.X) / 2
				jitter := func() geom.Point {
					return geom.Pt(hub.X+(rng.Float64()-0.5)*900, hub.Y+(rng.Float64()-0.5)*900)
				}
				object := func(id uncertain.ID, c geom.Point) core.Update {
					return upsertObject(t, id, rng.Intn(tc.variants), c, 5+rng.Float64()*15)
				}
				var ups []core.Update
				for j := 0; j < 6; j++ {
					switch rng.Intn(4) {
					case 0:
						ups = append(ups, object(uncertain.ID(rng.Intn(nObjects)), jitter()))
					case 1:
						ups = append(ups, core.Update{Op: core.OpUpsertPoint,
							Point: uncertain.PointObject{ID: uncertain.ID(rng.Intn(nPoints)), Loc: jitter()}})
					case 2:
						ups = append(ups, core.Update{Op: core.OpDeleteObject, ID: uncertain.ID(rng.Intn(nObjects))})
					default:
						ups = append(ups, object(uncertain.ID(nObjects+rng.Intn(50)), jitter()))
					}
				}
				switch batchNo % 4 {
				case 0:
					// One id three times: into the range, out of it, and
					// back to its edge. Only the last state may show.
					id := uncertain.ID(rng.Intn(nObjects))
					ups = append(ups, object(id, hub),
						object(id, geom.Pt(hub.X+3*reach, hub.Y)),
						object(id, geom.Pt(hub.X+reach-10, hub.Y)))
				case 1:
					// Delete-then-reinsert, and reinsert-then-delete, of
					// objects sitting inside the range.
					a, b := uncertain.ID(nObjects+100), uncertain.ID(nObjects+101)
					ups = append(ups, object(a, hub), object(b, hub),
						core.Update{Op: core.OpDeleteObject, ID: a}, object(a, jitter()),
						core.Update{Op: core.OpDeletePoint, ID: uncertain.ID(rng.Intn(nPoints))},
						core.Update{Op: core.OpDeleteObject, ID: b})
				case 2:
					// Straight across the guard boundary: one object and
					// one point from well outside to the center, another
					// pair the other way.
					in, out := uncertain.ID(nObjects+110), uncertain.ID(nObjects+111)
					far := geom.Pt(hub.X+3*reach, hub.Y+3*reach)
					if batchNo%8 == 2 {
						in, out = out, in
					}
					ups = append(ups, object(in, hub), object(out, far),
						core.Update{Op: core.OpUpsertPoint, Point: uncertain.PointObject{ID: nPoints + uncertain.ID(in), Loc: hub}},
						core.Update{Op: core.OpUpsertPoint, Point: uncertain.PointObject{ID: nPoints + uncertain.ID(out), Loc: far}})
				}
				out, err := m.ApplyUpdates(context.Background(), ups)
				if err != nil {
					t.Fatal(err)
				}
				if len(out.Report.Errors) > 0 {
					t.Fatalf("batch %d: %v", batchNo, out.Report.Errors)
				}

				for i, reg := range regs {
					for _, d := range drain(t, reg.sub) {
						if d.Err != nil {
							t.Fatalf("batch %d sub %d: delta error %v", batchNo, i, d.Err)
						}
						if d.Seq != out.Seq || d.Version != out.Report.Version {
							t.Fatalf("batch %d sub %d: delta tagged seq %d version %d, batch was seq %d version %d",
								batchNo, i, d.Seq, d.Version, out.Seq, out.Report.Version)
						}
						if d.Cost.NodeAccesses != 0 {
							t.Fatalf("batch %d sub %d: per-object maintenance probed the index (%d node accesses)",
								batchNo, i, d.Cost.NodeAccesses)
						}
						applyDelta(reg.replay, d)
					}
					fresh := freshSet(t, eng, reg.sub.Request())
					if !sameSet(reg.replay, fresh) {
						t.Fatalf("batch %d sub %d: replayed set (%d) != fresh evaluation (%d)",
							batchNo, i, len(reg.replay), len(fresh))
					}
					if !sameSet(reg.replay, matchesAsSet(reg.sub.Snapshot())) {
						t.Fatalf("batch %d sub %d: snapshot disagrees with replay", batchNo, i)
					}
				}
			}

			st := m.Stats()
			if st.Skipped == 0 {
				t.Fatal("guard filtering never skipped a re-evaluation; the trace is not exercising the filter")
			}
			if st.Reevaluated == 0 || st.Requalified == 0 {
				t.Fatalf("nothing was re-qualified: %+v", st)
			}
			if st.FullReevals != 0 {
				t.Fatalf("%d full re-evaluations of healthy range queries", st.FullReevals)
			}
			if tc.name != "closed-form" {
				var samples int64
				for _, reg := range regs {
					samples += reg.sub.Stats().Samples
				}
				if samples == 0 {
					t.Fatal("no Monte-Carlo samples drawn; the case is not exercising sampled refinement")
				}
			}
			t.Logf("stats: %+v", st)
		})
	}
}

// TestMonitorStandingNN: a Subscription is just a standing Request,
// so the nearest-neighbor kind stands like any other. NN guards are
// finite now — the tau-ball measured by the last evaluation — so
// batches that stay outside the ball are skipped (provably
// answer-preserving), batches touching it re-evaluate, and replaying
// the deltas reconstructs the fresh NN answer after every batch either
// way.
func TestMonitorStandingNN(t *testing.T) {
	const extent = 2000.0
	eng := monitorWorld(t, 200, 0, extent, 58)
	m := New(eng, Config{Workers: 2, MaxPending: -1})

	req := core.RequestNN(monitorIssuer(t, geom.Pt(1000, 1000), 80), 10)
	req.NNSamples = 500
	sub, err := m.Register(req)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Request().Kind != core.KindNN {
		t.Fatalf("subscription kind %v", sub.Request().Kind)
	}
	// The registration evaluation measured tau, so the guard must
	// already be finite.
	if g := sub.Guard(); g.Hi.X-g.Lo.X >= extent*10 {
		t.Fatalf("NN guard still unbounded after registration: %v", g)
	}
	replay := map[uncertain.ID]float64{}
	for _, d := range drain(t, sub) {
		applyDelta(replay, d)
	}
	if len(replay) == 0 {
		t.Fatal("empty registration answer")
	}

	rng := rand.New(rand.NewSource(59))
	reevals, skips := 0, 0
	for batchNo := 0; batchNo < 10; batchNo++ {
		var ups []core.Update
		for j := 0; j < 8; j++ {
			ups = append(ups, core.Update{Op: core.OpUpsertPoint, Point: uncertain.PointObject{
				ID:  uncertain.ID(rng.Intn(200)),
				Loc: geom.Pt(rng.Float64()*extent, rng.Float64()*extent),
			}})
		}
		out, err := m.ApplyUpdates(context.Background(), ups)
		if err != nil {
			t.Fatal(err)
		}
		if out.Reevaluated+out.Skipped != 1 {
			t.Fatalf("batch %d: unexpected outcome %+v", batchNo, out)
		}
		reevals += out.Reevaluated
		skips += out.Skipped
		for _, d := range drain(t, sub) {
			if d.Err != nil {
				t.Fatalf("batch %d: delta error %v", batchNo, d.Err)
			}
			applyDelta(replay, d)
		}
		// The replayed set's membership must match a fresh evaluation
		// of the same request (probabilities depend on the pass seed,
		// so compare ids).
		fresh := freshSet(t, eng, sub.Request())
		if len(replay) != len(fresh) {
			t.Fatalf("batch %d: replay has %d ids, fresh %d", batchNo, len(replay), len(fresh))
		}
		for id := range replay {
			if _, ok := fresh[id]; !ok {
				t.Fatalf("batch %d: replayed id %d missing from fresh answer", batchNo, id)
			}
		}
	}
	// Spread updates over a 2000×2000 extent against a small tau-ball:
	// both filter outcomes must occur, and every skipped batch above
	// already proved answer-preservation via the fresh comparison.
	if reevals == 0 || skips == 0 {
		t.Fatalf("guard filter exercised one-sidedly: reevals=%d skips=%d", reevals, skips)
	}

	// Deleting every point drains the standing NN answer to empty via
	// Left deltas (an empty database is an empty answer, not an error
	// that would freeze the cached set).
	var wipe []core.Update
	for id := 0; id < 200; id++ {
		wipe = append(wipe, core.Update{Op: core.OpDeletePoint, ID: uncertain.ID(id)})
	}
	if _, err := m.ApplyUpdates(context.Background(), wipe); err != nil {
		t.Fatal(err)
	}
	for _, d := range drain(t, sub) {
		if d.Err != nil {
			t.Fatalf("wipe batch: delta error %v", d.Err)
		}
		applyDelta(replay, d)
	}
	if len(replay) != 0 {
		t.Fatalf("standing NN answer not drained after deleting every point: %d ids remain", len(replay))
	}
}

// TestMonitorNNGuardSkipsUnderFlood floods a standing NN query with
// update batches confined far outside its tau-ball guard —
// interleaved with occasional in-guard churn — while a concurrent
// consumer replays the delta stream and other goroutines read the
// (now mutable) guard and stats. Run under -race in CI: the guard is
// recomputed from every evaluation while ApplyUpdates reads it to
// filter. Asserts that the flood is mostly guard-skipped, and that
// replay stays bit-exact against the subscription's cached set with
// the same membership as a from-scratch evaluation.
func TestMonitorNNGuardSkipsUnderFlood(t *testing.T) {
	const extent = 2000.0
	eng := monitorWorld(t, 300, 0, extent, 61)
	m := New(eng, Config{Workers: 2, MaxPending: -1})

	req := core.RequestNN(monitorIssuer(t, geom.Pt(300, 300), 60), 10)
	req.NNSamples = 400
	sub, err := m.Register(req)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent consumer: replays every delta into its own set until
	// the subscription closes.
	replay := map[uncertain.ID]float64{}
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for {
			d, err := sub.Next(context.Background())
			if err != nil {
				return // ErrClosed after the queue drained
			}
			applyDelta(replay, d)
		}
	}()
	// Concurrent observers: hammer the mutable-guard read path and the
	// stats surfaces the metrics endpoint uses.
	obsStop := make(chan struct{})
	var obsWG sync.WaitGroup
	for w := 0; w < 2; w++ {
		obsWG.Add(1)
		go func() {
			defer obsWG.Done()
			for {
				select {
				case <-obsStop:
					return
				default:
					_ = sub.Guard()
					_ = sub.Stats()
					_ = sub.Snapshot()
					_ = m.Stats()
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(62))
	const batches = 40
	for b := 0; b < batches; b++ {
		var ups []core.Update
		if b%8 == 7 {
			// In-guard churn: move a point near the issuer, forcing a
			// re-evaluation and a guard recompute.
			ups = append(ups, core.Update{Op: core.OpUpsertPoint, Point: uncertain.PointObject{
				ID:  uncertain.ID(rng.Intn(300)),
				Loc: geom.Pt(250+rng.Float64()*100, 250+rng.Float64()*100),
			}})
		} else {
			// Far-corner flood: fresh ids in [1500, 2000]², provably
			// outside any reasonable tau-ball around (300, 300).
			for j := 0; j < 16; j++ {
				ups = append(ups, core.Update{Op: core.OpUpsertPoint, Point: uncertain.PointObject{
					ID:  uncertain.ID(10000 + rng.Intn(500)),
					Loc: geom.Pt(1500+rng.Float64()*500, 1500+rng.Float64()*500),
				}})
			}
		}
		if _, err := m.ApplyUpdates(context.Background(), ups); err != nil {
			t.Fatal(err)
		}
	}
	close(obsStop)
	obsWG.Wait()

	st := m.Stats()
	if st.Skipped == 0 {
		t.Fatalf("finite NN guard never skipped a batch: %+v", st)
	}
	if st.Reevaluated >= st.Skipped {
		t.Fatalf("far-corner flood mostly re-evaluated (%d reevals vs %d skips)",
			st.Reevaluated, st.Skipped)
	}
	ss := sub.Stats()
	if ss.Skipped == 0 || ss.Reevals < 2 {
		t.Fatalf("subscription saw one-sided filtering: %+v", ss)
	}

	// Close the subscription: Next drains the queue, then the consumer
	// exits and the replayed set must equal the cached set bit-exactly
	// and match a from-scratch evaluation's membership.
	sub.Close()
	<-consumerDone
	if !sameSet(replay, matchesAsSet(sub.Snapshot())) {
		t.Fatalf("replayed set %v != cached set %v", replay, sub.Snapshot())
	}
	fresh := freshSet(t, eng, sub.Request())
	if len(replay) != len(fresh) {
		t.Fatalf("replay has %d ids, fresh evaluation %d", len(replay), len(fresh))
	}
	for id := range replay {
		if _, ok := fresh[id]; !ok {
			t.Fatalf("replayed id %d missing from fresh answer", id)
		}
	}
}

func matchesAsSet(ms []core.Match) map[uncertain.ID]float64 {
	set := make(map[uncertain.ID]float64, len(ms))
	for _, m := range ms {
		set[m.ID] = m.P
	}
	return set
}

// TestMonitorCoalescing: a consumer that never drains must not grow
// the queue past MaxPending — the queue composes into a cumulative
// delta — and replaying the composed stream still reconstructs the
// exact final qualifying set.
func TestMonitorCoalescing(t *testing.T) {
	eng := monitorWorld(t, 0, 400, 1500, 52)
	m := New(eng, Config{MaxPending: 4})

	q := core.Query{Issuer: monitorIssuer(t, geom.Pt(750, 750), 60), W: 300, H: 300}
	sub, err := m.Register(reqOf(q, core.KindUncertain))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(53))
	for batchNo := 0; batchNo < 40; batchNo++ {
		var ups []core.Update
		for j := 0; j < 4; j++ {
			c := geom.Pt(rng.Float64()*1500, rng.Float64()*1500)
			ups = append(ups, moveObject(t, uncertain.ID(rng.Intn(400)), c, 5+rng.Float64()*20))
		}
		if _, err := m.ApplyUpdates(context.Background(), ups); err != nil {
			t.Fatal(err)
		}
	}

	deltas := drain(t, sub)
	if len(deltas) > 4 {
		t.Fatalf("queue grew to %d deltas despite MaxPending=4", len(deltas))
	}
	if sub.Stats().Coalesced == 0 {
		t.Fatal("no coalescing happened; the bound was never hit")
	}
	replay := map[uncertain.ID]float64{}
	for _, d := range deltas {
		applyDelta(replay, d)
	}
	if fresh := freshSet(t, eng, reqOf(q, core.KindUncertain)); !sameSet(replay, fresh) {
		t.Fatalf("coalesced replay (%d) != fresh evaluation (%d)", len(replay), len(fresh))
	}
}

// TestMonitorRegisterUnregister covers the subscription lifecycle:
// the registration snapshot, Next's blocking and cancellation
// behavior, and ErrClosed after Unregister (queued deltas drained
// first).
func TestMonitorRegisterUnregister(t *testing.T) {
	eng := monitorWorld(t, 100, 200, 1000, 54)
	m := New(eng, Config{})

	q := core.Query{Issuer: monitorIssuer(t, geom.Pt(500, 500), 50), W: 250, H: 250}
	sub, err := m.Register(reqOf(q, core.KindUncertain))
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().Registered != 1 {
		t.Fatalf("Registered = %d", m.Stats().Registered)
	}

	// The first delta is the snapshot: Entered equals the one-shot
	// evaluation.
	d, err := sub.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !sameSet(matchesAsSet(d.Entered), freshSet(t, eng, reqOf(q, core.KindUncertain))) {
		t.Fatal("registration snapshot != one-shot evaluation")
	}
	if len(d.Left) != 0 || len(d.Updated) != 0 || d.Seq != 0 {
		t.Fatalf("snapshot delta has Left=%d Updated=%d Seq=%d", len(d.Left), len(d.Updated), d.Seq)
	}

	// Next blocks until cancellation when nothing is pending.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := sub.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next on empty queue: %v", err)
	}

	// Queue one more delta, then unregister: the delta must still be
	// drainable before ErrClosed.
	if _, err := m.ApplyUpdates(context.Background(), []core.Update{
		moveObject(t, 7, geom.Pt(500, 500), 10),
	}); err != nil {
		t.Fatal(err)
	}
	if !m.Unregister(sub.ID()) {
		t.Fatal("Unregister reported the subscription missing")
	}
	if m.Unregister(sub.ID()) {
		t.Fatal("double Unregister succeeded")
	}
	if _, err := sub.Next(context.Background()); err != nil {
		t.Fatalf("queued delta lost at close: %v", err)
	}
	if _, err := sub.Next(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained subscription: %v, want ErrClosed", err)
	}

	// Updates against an empty registry are pure engine writes.
	out, err := m.ApplyUpdates(context.Background(), []core.Update{
		moveObject(t, 8, geom.Pt(100, 100), 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Reevaluated != 0 || out.Skipped != 0 {
		t.Fatalf("empty registry: %+v", out)
	}
}

// TestMonitorEvalErrorKeepsCachedSet: a re-evaluation that fails (an
// impossible per-query deadline) must surface as Delta.Err and leave
// the cached qualifying set untouched, so the next successful pass
// diffs against the last good state.
func TestMonitorEvalErrorKeepsCachedSet(t *testing.T) {
	eng := monitorWorld(t, 0, 300, 1000, 55)
	m := New(eng, Config{Options: core.EvalOptions{Timeout: time.Nanosecond}})

	q := core.Query{Issuer: monitorIssuer(t, geom.Pt(500, 500), 50), W: 250, H: 250}
	// Registration itself would time out; register through a separate
	// monitor sharing the engine, then ingest through the deadlined
	// one. Simpler: registration uses the same options, so expect the
	// error immediately.
	if _, err := m.Register(reqOf(q, core.KindUncertain)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Register under nanosecond deadline: %v", err)
	}

	ok := New(eng, Config{})
	sub, err := ok.Register(reqOf(q, core.KindUncertain))
	if err != nil {
		t.Fatal(err)
	}
	before := sub.Snapshot()
	if len(before) == 0 {
		t.Fatal("empty initial answer; the error test needs a non-trivial set")
	}

	// Sample-budget errors flow the same way: make every re-eval
	// trip the budget.
	tight := New(eng, Config{Options: core.EvalOptions{MaxSamples: 1,
		Object: core.ObjectEvalConfig{ForceMonteCarlo: true}}})
	sub2, err2 := tight.Register(reqOf(q, core.KindUncertain))
	if !errors.Is(err2, core.ErrSampleBudget) {
		t.Fatalf("Register under 1-sample budget: %v (sub %v)", err2, sub2)
	}

	drain(t, sub)
	if _, err := ok.ApplyUpdates(context.Background(), []core.Update{
		moveObject(t, 3, geom.Pt(500, 500), 10),
	}); err != nil {
		t.Fatal(err)
	}
	for _, d := range drain(t, sub) {
		if d.Err != nil {
			t.Fatalf("healthy monitor delivered error delta: %v", d.Err)
		}
	}
}

// TestMonitorConcurrentStress exercises the full surface at once
// under the race detector: concurrent ApplyUpdates callers, standing
// consumers blocking in Next, a feed's consumer polling its
// subscriptions, registration churn onto that feed, and one-shot
// queries sharing the engine. Correctness here is absence of races
// and a consistent final replay.
func TestMonitorConcurrentStress(t *testing.T) {
	const extent = 2000.0
	eng := monitorWorld(t, 300, 500, extent, 56)
	m := New(eng, Config{Workers: 2, MaxPending: 8})

	var subs []*Subscription
	for i := 0; i < 9; i++ {
		c := geom.Pt(200+rand.New(rand.NewSource(int64(i))).Float64()*1600, 200+float64(i%6)*250)
		q := core.Query{Issuer: monitorIssuer(t, c, 50), W: 200, H: 200}
		sub, err := m.Register(reqOf(q, core.KindUncertain))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Ingest goroutines.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 25; i++ {
				var ups []core.Update
				for j := 0; j < 5; j++ {
					c := geom.Pt(rng.Float64()*extent, rng.Float64()*extent)
					ups = append(ups, moveObject(t, uncertain.ID(rng.Intn(500)), c, 5+rng.Float64()*15))
				}
				if _, err := m.ApplyUpdates(context.Background(), ups); err != nil {
					t.Errorf("ApplyUpdates: %v", err)
					return
				}
			}
		}(g)
	}
	// Consumers blocking in Next.
	ctx, cancel := context.WithCancel(context.Background())
	for _, sub := range subs[:3] {
		wg.Add(1)
		go func(sub *Subscription) {
			defer wg.Done()
			replay := map[uncertain.ID]float64{}
			for {
				d, err := sub.Next(ctx)
				if err != nil {
					return
				}
				applyDelta(replay, d)
			}
		}(sub)
	}
	// subs[6:] ride one feed, drained with Poll whenever it is signalled.
	f := m.NewFeed()
	fed := subs[6:]
	replays := make([]map[uncertain.ID]float64, len(fed))
	for i, sub := range fed {
		sub.Attach(f)
		replays[i] = map[uncertain.ID]float64{}
	}
	pollAll := func() {
		for i, sub := range fed {
			for {
				d, ok, err := sub.Poll()
				if err != nil || !ok {
					break
				}
				applyDelta(replays[i], d)
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-f.Wake():
				pollAll()
			case <-ctx.Done():
				return
			}
		}
	}()
	// Registration churn + one-shot queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(999))
		for {
			select {
			case <-stop:
				return
			default:
			}
			q := core.Query{Issuer: monitorIssuer(t, geom.Pt(rng.Float64()*extent, rng.Float64()*extent), 40), W: 150, H: 150}
			sub, err := m.Register(reqOf(q, core.KindUncertain))
			if err != nil {
				t.Errorf("Register: %v", err)
				return
			}
			sub.Attach(f)
			if _, err := eng.Evaluate(context.Background(), reqOf(q, core.KindUncertain)); err != nil {
				t.Errorf("one-shot: %v", err)
				return
			}
			sub.Close()
		}
	}()

	time.Sleep(50 * time.Millisecond)
	close(stop)
	cancel()
	wg.Wait()

	// Quiesced: every surviving subscription's drained replay matches
	// a fresh evaluation — the ones nobody read during the stress, and
	// the fed ones drained to the end.
	for i, sub := range subs[3:6] {
		replay := map[uncertain.ID]float64{}
		for _, d := range drain(t, sub) {
			applyDelta(replay, d)
		}
		if fresh := freshSet(t, eng, sub.Request()); !sameSet(replay, fresh) {
			t.Fatalf("sub %d: post-stress replay != fresh evaluation", i)
		}
	}
	pollAll()
	for i, sub := range fed {
		if fresh := freshSet(t, eng, sub.Request()); !sameSet(replays[i], fresh) {
			t.Fatalf("sub %d: post-stress replay != fresh evaluation (fed)", i)
		}
	}
}

// TestMonitorKindAwareWakeup: a query reads one table, so a change of
// the other table inside its guard provably cannot move its answer and
// must count as Skipped — point hops under an uncertain-object query,
// object re-reports under a point query or an NN query — however close
// to the issuer they land.
func TestMonitorKindAwareWakeup(t *testing.T) {
	eng := monitorWorld(t, 300, 300, 1000, 63)
	m := New(eng, Config{})
	center := geom.Pt(500, 500)
	iss := monitorIssuer(t, center, 50)

	overObjects, err := m.Register(core.RequestUncertain(iss, 200, 200, 0))
	if err != nil {
		t.Fatal(err)
	}
	overPoints, err := m.Register(core.RequestPoints(iss, 200, 200, 0))
	if err != nil {
		t.Fatal(err)
	}
	nn, err := m.Register(core.RequestNN(iss, 3))
	if err != nil {
		t.Fatal(err)
	}
	subs := []*Subscription{overObjects, overPoints, nn}
	for _, sub := range subs {
		drain(t, sub)
	}

	pointHops := []core.Update{
		{Op: core.OpUpsertPoint, Point: uncertain.PointObject{ID: 7, Loc: center}},
		{Op: core.OpUpsertPoint, Point: uncertain.PointObject{ID: 9000, Loc: geom.Pt(510, 490)}},
		{Op: core.OpDeletePoint, ID: 7},
	}
	objectMoves := []core.Update{
		moveObject(t, 7, center, 10),
		moveObject(t, 9000, geom.Pt(510, 490), 10),
		{Op: core.OpDeleteObject, ID: 7},
	}
	steps := []struct {
		name    string
		batch   []core.Update
		skipped []*Subscription
		woken   []*Subscription
	}{
		{"point hops", pointHops, []*Subscription{overObjects}, []*Subscription{overPoints, nn}},
		{"object moves", objectMoves, []*Subscription{overPoints, nn}, []*Subscription{overObjects}},
	}
	for _, step := range steps {
		before := m.Stats().Skipped
		out, err := m.ApplyUpdates(context.Background(), step.batch)
		if err != nil {
			t.Fatal(err)
		}
		if out.Report.Applied != len(step.batch) {
			t.Fatalf("%s: applied %d of %d", step.name, out.Report.Applied, len(step.batch))
		}
		if out.Skipped != len(step.skipped) || out.Reevaluated != len(step.woken) {
			t.Fatalf("%s: outcome %+v, want %d skipped and %d re-evaluated",
				step.name, out, len(step.skipped), len(step.woken))
		}
		if got := m.Stats().Skipped - before; got != int64(len(step.skipped)) {
			t.Fatalf("%s: Stats.Skipped rose by %d, want %d", step.name, got, len(step.skipped))
		}
		for _, sub := range step.skipped {
			if ds := drain(t, sub); len(ds) != 0 {
				t.Fatalf("%s: skipped %v query %d received %d deltas", step.name, sub.Request().Kind, sub.ID(), len(ds))
			}
		}
		for _, sub := range step.woken {
			if ds := drain(t, sub); len(ds) != 1 || ds[0].Empty() {
				t.Fatalf("%s: woken %v query %d received %+v", step.name, sub.Request().Kind, sub.ID(), ds)
			}
		}
	}
}

// TestMonitorFailedUpdatesWakeNothing: an update the engine rejected
// changed nothing, whatever it was aimed at; a batch of only failures
// and absent deletes skips every standing query.
func TestMonitorFailedUpdatesWakeNothing(t *testing.T) {
	eng := monitorWorld(t, 50, 50, 1000, 64)
	m := New(eng, Config{})
	sub, err := m.Register(core.RequestUncertain(monitorIssuer(t, geom.Pt(500, 500), 50), 400, 400, 0))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, sub)
	out, err := m.ApplyUpdates(context.Background(), []core.Update{
		{Op: core.OpUpsertObject},           // nil object
		{Op: core.UpdateOp(99)},             // unknown op
		{Op: core.OpDeleteObject, ID: 4242}, // absent
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Report.Errors) != 2 || out.Report.Missing != 1 || out.Report.Applied != 0 {
		t.Fatalf("report %+v", out.Report)
	}
	if out.Skipped != 1 || out.Reevaluated != 0 || out.Requalified != 0 {
		t.Fatalf("outcome %+v, want the one query skipped", out)
	}
	if ds := drain(t, sub); len(ds) != 0 {
		t.Fatalf("%d deltas from a batch that applied nothing", len(ds))
	}
}

// TestMonitorUnmovedMonteCarloMatchNeverUpdated: the sampling seed
// belongs to the subscription, not to the pass, so an object that did
// not move keeps its Monte-Carlo probability bit for bit and never
// shows up in a delta — through per-object maintenance and through the
// full fallback alike. Only ids the batches touched may appear.
func TestMonitorUnmovedMonteCarloMatchNeverUpdated(t *testing.T) {
	eng := monitorWorld(t, 0, 500, 1000, 65)
	m := New(eng, Config{Options: core.EvalOptions{
		Object: core.ObjectEvalConfig{ForceMonteCarlo: true, MCSamples: 200}}})
	center := geom.Pt(500, 500)
	sub, err := m.Register(core.RequestUncertain(monitorIssuer(t, center, 50), 250, 250, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if reg := drain(t, sub); len(reg) != 1 || len(reg[0].Entered) < 10 || reg[0].Cost.SamplesUsed == 0 {
		t.Fatalf("registration delta %+v: want a sampled answer of some size", reg)
	}

	rng := rand.New(rand.NewSource(66))
	moved := map[uncertain.ID]bool{}
	check := func(batchNo int) {
		t.Helper()
		for _, d := range drain(t, sub) {
			if d.Err != nil {
				continue
			}
			for _, ms := range [][]core.Match{d.Entered, d.Updated} {
				for _, match := range ms {
					if !moved[match.ID] {
						t.Fatalf("batch %d: unmoved object %d reported with p=%v", batchNo, match.ID, match.P)
					}
				}
			}
			for _, id := range d.Left {
				if !moved[id] {
					t.Fatalf("batch %d: unmoved object %d left", batchNo, id)
				}
			}
			clear(moved)
		}
	}
	for batchNo := 0; batchNo < 30; batchNo++ {
		var ups []core.Update
		for j := 0; j < 4; j++ {
			id := uncertain.ID(rng.Intn(500))
			moved[id] = true
			c := geom.Pt(center.X+(rng.Float64()-0.5)*700, center.Y+(rng.Float64()-0.5)*700)
			ups = append(ups, moveObject(t, id, c, 5+rng.Float64()*15))
		}
		ctx, cancel := context.WithCancel(context.Background())
		if batchNo%10 == 4 {
			// A cancelled pass leaves the query stale; the next batch
			// recomputes it in full, with the same seed.
			cancel()
		}
		_, err := m.ApplyUpdates(ctx, ups)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		check(batchNo)
	}
	if st := m.Stats(); st.FullReevals == 0 || st.Requalified == 0 {
		t.Fatalf("both maintenance paths must have run: %+v", st)
	}
	if !sameSet(matchesAsSet(sub.Snapshot()), freshSet(t, eng, sub.Request())) {
		t.Fatal("cached set != fresh evaluation at the end of the trace")
	}
}

// TestMonitorBudgetErrorRecoversThroughFullPath: a per-object
// re-qualification that trips the request's sample budget surfaces as
// an error delta and leaves the cached set alone; the query is then
// stale, so the next batch recomputes it in full — and, once that
// fits, replay is exact again.
func TestMonitorBudgetErrorRecoversThroughFullPath(t *testing.T) {
	// Nothing near the center but what the test puts there.
	objects := make([]*uncertain.Object, 12)
	for i := range objects {
		objects[i] = moveObject(t, uncertain.ID(i), geom.Pt(5000+float64(i)*100, 5000), 10).Object
	}
	eng, err := core.NewEngine(nil, objects, core.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	center := geom.Pt(500, 500)
	move := func(c geom.Point, ids ...uncertain.ID) []core.Update {
		var ups []core.Update
		for _, id := range ids {
			ups = append(ups, moveObject(t, id, c, 10))
		}
		return ups
	}
	eng.ApplyUpdates(move(center, 0, 1))

	// 200 samples per refined object, no early stop at threshold 0:
	// the answer of two fits the budget of 900, five more at once do
	// not.
	m := New(eng, Config{Options: core.EvalOptions{MaxSamples: 900,
		Object: core.ObjectEvalConfig{ForceMonteCarlo: true, MCSamples: 200}}})
	sub, err := m.Register(core.RequestUncertain(monitorIssuer(t, center, 50), 200, 200, 0))
	if err != nil {
		t.Fatal(err)
	}
	replay := map[uncertain.ID]float64{}
	for _, d := range drain(t, sub) {
		applyDelta(replay, d)
	}
	if len(replay) != 2 {
		t.Fatalf("registration answer has %d objects, want 2", len(replay))
	}

	out, err := m.ApplyUpdates(context.Background(), move(center, 2, 3, 4, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	ds := drain(t, sub)
	if len(ds) != 1 || !errors.Is(ds[0].Err, core.ErrSampleBudget) || out.Requalified != 5 || out.FullReevals != 0 {
		t.Fatalf("over-budget batch: deltas %+v outcome %+v", ds, out)
	}
	applyDelta(replay, ds[0])
	if len(replay) != 2 || !sameSet(replay, matchesAsSet(sub.Snapshot())) {
		t.Fatalf("error delta disturbed the set: %v", replay)
	}
	if _, err := eng.Evaluate(context.Background(), sub.Request()); !errors.Is(err, core.ErrSampleBudget) {
		t.Fatalf("from-scratch evaluation of the over-budget state: %v", err)
	}

	// The recovering batch does not touch the guard at all: only
	// staleness forces the evaluation. It still exceeds the budget
	// (seven objects), so the query stays stale...
	out, err = m.ApplyUpdates(context.Background(), move(geom.Pt(9000, 9000), 11))
	if err != nil {
		t.Fatal(err)
	}
	ds = drain(t, sub)
	if len(ds) != 1 || !errors.Is(ds[0].Err, core.ErrSampleBudget) || out.FullReevals != 1 || out.Requalified != 0 {
		t.Fatalf("stale batch: deltas %+v outcome %+v", ds, out)
	}
	// ...until enough objects leave for the full evaluation to fit.
	out, err = m.ApplyUpdates(context.Background(), move(geom.Pt(9000, 9000), 3, 4, 5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if out.FullReevals != 1 || out.Requalified != 0 {
		t.Fatalf("recovering batch: outcome %+v", out)
	}
	for _, d := range drain(t, sub) {
		if d.Err != nil {
			t.Fatalf("recovering batch: %v", d.Err)
		}
		applyDelta(replay, d)
	}
	if len(replay) != 3 || !sameSet(replay, freshSet(t, eng, sub.Request())) {
		t.Fatalf("replay after recovery %v != fresh evaluation", replay)
	}
	// Healthy again: the next touching batch is maintained per object.
	out, err = m.ApplyUpdates(context.Background(), move(center, 7))
	if err != nil {
		t.Fatal(err)
	}
	if out.FullReevals != 0 || out.Requalified != 1 {
		t.Fatalf("post-recovery batch: outcome %+v", out)
	}
	for _, d := range drain(t, sub) {
		applyDelta(replay, d)
	}
	if !sameSet(replay, freshSet(t, eng, sub.Request())) {
		t.Fatal("replay after post-recovery batch != fresh evaluation")
	}
	if st := m.Stats(); st.EvalErrors != 2 {
		t.Fatalf("EvalErrors = %d, want 2", st.EvalErrors)
	}
}

// TestMonitorSubscriptionSeedAndOrder: a registered seed is kept, a
// missing one is derived from the monitor seed and the subscription id
// (so it differs per subscription and is stable across runs), and the
// registry stays id-ordered through registration churn.
func TestMonitorSubscriptionSeedAndOrder(t *testing.T) {
	eng := monitorWorld(t, 50, 50, 1000, 67)
	iss := monitorIssuer(t, geom.Pt(500, 500), 50)
	register := func(m *Monitor, seed int64) *Subscription {
		req := core.RequestUncertain(iss, 100, 100, 0)
		req.Seed = seed
		sub, err := m.Register(req)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	m := New(eng, Config{Seed: 5})
	var subs []*Subscription
	for i := 0; i < 6; i++ {
		subs = append(subs, register(m, 0))
	}
	kept := register(m, 77)
	if got := kept.Request().Seed; got != 77 {
		t.Fatalf("registered seed 77 became %d", got)
	}
	seen := map[int64]bool{}
	for _, sub := range subs {
		seed := sub.Request().Seed
		if seed == 0 || seen[seed] {
			t.Fatalf("derived seed %d of subscription %d is zero or repeated", seed, sub.ID())
		}
		seen[seed] = true
	}
	if again := register(New(eng, Config{Seed: 5}), 0); again.Request().Seed != subs[0].Request().Seed {
		t.Fatal("derived seed differs between two monitors with the same seed and id")
	}

	subs[4].Close()
	subs[0].Close()
	subs = append(subs, register(m, 0))
	var want []int64
	for _, id := range []int{1, 2, 3, 5} {
		want = append(want, subs[id].ID())
	}
	want = append(want, kept.ID(), subs[6].ID())
	var got []int64
	for _, sub := range m.Subscriptions() {
		got = append(got, sub.ID())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("registry order %v, want %v", got, want)
	}
}
