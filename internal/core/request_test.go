package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mcbound"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// TestRequestValidationTable exhaustively checks that malformed
// Requests come back as typed *RequestError values naming the
// offending field and wrapping the documented sentinel.
func TestRequestValidationTable(t *testing.T) {
	iss := testIssuer(t, geom.Pt(500, 500), 25)
	huge := uncertain.Object{PDF: pdf.MustUniform(geom.Rect{Lo: geom.Pt(-1.7e308, 0), Hi: geom.Pt(1.7e308, 1)})}
	nan := uncertain.Object{PDF: pdf.MustUniform(geom.Rect{Lo: geom.Pt(math.NaN(), 0), Hi: geom.Pt(1, 1)})}
	cases := []struct {
		name     string
		req      Request
		field    string
		sentinel error
	}{
		{"unknown kind", Request{Kind: Kind(99), Issuer: iss, W: 10, H: 10}, "kind", ErrBadKind},
		{"negative kind", Request{Kind: Kind(-1), Issuer: iss, W: 10, H: 10}, "kind", ErrBadKind},
		{"uncertain nil issuer", Request{Kind: KindUncertain, W: 10, H: 10}, "issuer", ErrNilIssuer},
		{"points nil issuer", Request{Kind: KindPoints, W: 10, H: 10}, "issuer", ErrNilIssuer},
		{"nn nil issuer", Request{Kind: KindNN, K: 1}, "issuer", ErrNilIssuer},
		{"zero width", Request{Kind: KindUncertain, Issuer: iss, W: 0, H: 10}, "extent", ErrBadExtents},
		{"negative height", Request{Kind: KindPoints, Issuer: iss, W: 10, H: -1}, "extent", ErrBadExtents},
		{"threshold below range", Request{Kind: KindUncertain, Issuer: iss, W: 10, H: 10, Threshold: -0.1}, "threshold", ErrBadThreshold},
		{"threshold above range", Request{Kind: KindPoints, Issuer: iss, W: 10, H: 10, Threshold: 1.01}, "threshold", ErrBadThreshold},
		{"nn threshold above range", Request{Kind: KindNN, Issuer: iss, K: 3, Threshold: 2}, "threshold", ErrBadThreshold},
		{"k on uncertain request", Request{Kind: KindUncertain, Issuer: iss, W: 10, H: 10, K: 5}, "k", ErrKindMismatch},
		{"k on points request", Request{Kind: KindPoints, Issuer: iss, W: 10, H: 10, K: 5}, "k", ErrKindMismatch},
		{"nn samples on range request", Request{Kind: KindUncertain, Issuer: iss, W: 10, H: 10, NNSamples: 100}, "nn_samples", ErrKindMismatch},
		{"extents on nn request", Request{Kind: KindNN, Issuer: iss, W: 10, H: 10, K: 3}, "extent", ErrKindMismatch},
		{"nn k zero", Request{Kind: KindNN, Issuer: iss}, "k", ErrBadNNK},
		{"nn k negative", Request{Kind: KindNN, Issuer: iss, K: -2}, "k", ErrBadNNK},
		{"nn negative samples", Request{Kind: KindNN, Issuer: iss, K: 3, NNSamples: -1}, "nn_samples", ErrBadNNSamples},
		{"nn overflowing issuer region", Request{Kind: KindNN, Issuer: &huge, K: 1}, "issuer", geom.ErrInvalidRect},
		{"nn NaN issuer region", Request{Kind: KindNN, Issuer: &nan, K: 1}, "issuer", geom.ErrInvalidRect},
	}
	e := testWorld(t, 20, 20, 3)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if err == nil {
				t.Fatal("invalid request accepted")
			}
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("error %T (%v) is not a *RequestError", err, err)
			}
			if reqErr.Field != tc.field {
				t.Fatalf("field = %q, want %q (%v)", reqErr.Field, tc.field, err)
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("error %v does not wrap %v", err, tc.sentinel)
			}
			// Evaluate (engine and snapshot) surfaces the identical
			// typed error.
			if _, eerr := e.Evaluate(context.Background(), tc.req); !errors.Is(eerr, tc.sentinel) {
				t.Fatalf("Engine.Evaluate error %v does not wrap %v", eerr, tc.sentinel)
			}
			snap := e.Snapshot()
			defer snap.Close()
			if _, serr := snap.Evaluate(context.Background(), tc.req); !errors.As(serr, &reqErr) {
				t.Fatalf("Snapshot.Evaluate error %T is not a *RequestError", serr)
			}
		})
	}

	// The valid shapes of each kind pass.
	for _, req := range []Request{
		RequestUncertain(iss, 10, 10, 0.5),
		RequestPoints(iss, 10, 10, 0),
		RequestNN(iss, 3),
	} {
		if err := req.Validate(); err != nil {
			t.Fatalf("valid request %+v rejected: %v", req, err)
		}
	}
}

// stripDurations zeroes the wall-clock fields so results can be
// compared bit-exactly.
func stripDurations(r Result) Result {
	r.Cost.Duration = 0
	return r
}

// TestShimGoldenEquivalence: the Query-form helpers the tests are
// written in produce byte-identical Results to the Request path, for
// both databases, sampling paths included; and an EvaluateAll fan-out
// equals its requests evaluated one at a time.
func TestShimGoldenEquivalence(t *testing.T) {
	e := testWorld(t, 400, 300, 4)
	iss := testIssuer(t, geom.Pt(500, 500), 60)
	q := Query{Issuer: iss, W: 150, H: 150, Threshold: 0.3}
	mcOpts := func(seed int64) EvalOptions {
		return EvalOptions{
			Rng:    rand.New(rand.NewSource(seed)),
			Object: ObjectEvalConfig{ForceMonteCarlo: true, MCSamples: 512},
		}
	}

	t.Run("points", func(t *testing.T) {
		viaHelper, err := e.EvaluatePoints(q, EvalOptions{Rng: rand.New(rand.NewSource(9))})
		if err != nil {
			t.Fatal(err)
		}
		req := RequestPoints(iss, 150, 150, 0.3)
		req.Options.Rng = rand.New(rand.NewSource(9))
		resp, err := e.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripDurations(viaHelper), stripDurations(resp.Result)) {
			t.Fatalf("EvaluatePoints helper diverged:\n%+v\n%+v", viaHelper, resp.Result)
		}
	})

	t.Run("uncertain-montecarlo", func(t *testing.T) {
		viaHelper, err := e.EvaluateUncertain(q, mcOpts(9))
		if err != nil {
			t.Fatal(err)
		}
		req := RequestUncertain(iss, 150, 150, 0.3)
		req.Options = mcOpts(9)
		resp, err := e.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripDurations(viaHelper), stripDurations(resp.Result)) {
			t.Fatalf("EvaluateUncertain helper diverged:\n%+v\n%+v", viaHelper, resp.Result)
		}
	})

	t.Run("batch", func(t *testing.T) {
		// EvaluateAll's seeding contract: request i, carrying no Seed of
		// its own, runs seeded by mcbound.DeriveSeed(AllOptions.Seed, i)
		// — evaluating it alone under that seed reproduces the fan-out
		// bit-exactly.
		var reqs []Request
		for i := 0; i < 12; i++ {
			kind := KindUncertain
			if i%3 == 0 {
				kind = KindPoints
			}
			q := Query{Issuer: testIssuer(t, geom.Pt(100+float64(i)*70, 500), 40), W: 120, H: 120, Threshold: 0.2}
			reqs = append(reqs, requestFor(kind, q, mcOpts(9)))
		}
		fanned, errs := collectAll(t, e.EvaluateAll, reqs, AllOptions{Workers: 3, Seed: 9})
		for i, req := range reqs {
			if errs[i] != nil {
				t.Fatalf("request %d: %v", i, errs[i])
			}
			req.Seed = mcbound.DeriveSeed(9, i)
			resp, err := e.Evaluate(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripDurations(fanned[i]), stripDurations(resp.Result)) {
				t.Fatalf("request %d diverged from its lone evaluation", i)
			}
		}
	})
}

// TestEvaluateAllDeterminism: responses are a pure function of
// (snapshot, request, seed) — independent of the fan-out worker count
// — with per-request seeds either explicit or derived from
// AllOptions.Seed and the index.
func TestEvaluateAllDeterminism(t *testing.T) {
	e := testWorld(t, 300, 300, 5)
	var reqs []Request
	for i := 0; i < 10; i++ {
		iss := testIssuer(t, geom.Pt(100+float64(i)*80, 400), 50)
		req := RequestUncertain(iss, 130, 130, 0.25)
		req.Options.Object = ObjectEvalConfig{ForceMonteCarlo: true, MCSamples: 256}
		if i%2 == 0 {
			req.Seed = int64(1000 + i)
		}
		reqs = append(reqs, req)
	}
	collect := func(workers int) []Result {
		out := make([]Result, len(reqs))
		if err := e.EvaluateAll(context.Background(), reqs, AllOptions{Workers: workers, Seed: 77},
			func(i int, resp Response, err error) {
				if err != nil {
					t.Errorf("request %d: %v", i, err)
				}
				out[i] = stripDurations(resp.Result)
			}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := collect(1)
	for _, workers := range []int{2, 4, 16} {
		if got := collect(workers); !reflect.DeepEqual(base, got) {
			t.Fatalf("EvaluateAll results changed at workers=%d", workers)
		}
	}
	// Explicitly seeded requests reproduce standalone.
	for i, req := range reqs {
		if req.Seed == 0 {
			continue
		}
		resp, err := e.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base[i], stripDurations(resp.Result)) {
			t.Fatalf("seeded request %d differs between EvaluateAll and Evaluate", i)
		}
	}
}

// TestNNRequestWorkerDeterminism: an NN request's answer is a pure
// function of (snapshot, request, seed) — the same evaluated alone or
// inside an EvaluateAll fan-out of any width, where concurrent NN
// requests each refine on their own worker goroutine — and its shared
// stream draws exactly the NNSamples budget however many candidates it
// tallies.
func TestNNRequestWorkerDeterminism(t *testing.T) {
	e := testWorld(t, 500, 0, 6)
	var reqs []Request
	for i := 0; i < 4; i++ {
		req := RequestNN(testIssuer(t, geom.Pt(380+float64(i)*80, 500), 80), 500)
		req.NNSamples = 3000
		req.Seed = int64(99 + i)
		reqs = append(reqs, req)
	}
	base := make([]Result, len(reqs))
	for i, req := range reqs {
		resp, err := e.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Matches) == 0 || resp.Cost.Refined == 0 {
			t.Fatalf("request %d: degenerate NN baseline: %+v", i, resp.Cost)
		}
		if resp.Cost.SamplesUsed != 3000 {
			t.Fatalf("request %d: SamplesUsed %d != shared-stream budget 3000 (candidates %d)",
				i, resp.Cost.SamplesUsed, resp.Cost.Refined)
		}
		base[i] = stripDurations(resp.Result)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		got, errs := collectAll(t, e.EvaluateAll, reqs, AllOptions{Workers: workers})
		for i := range reqs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(base[i], stripDurations(got[i])) {
				t.Fatalf("request %d: NN result changed inside a %d-worker fan-out", i, workers)
			}
		}
	}
}

// TestNNRequestSemantics covers the NN-specific contract: threshold
// filtering, the top-K bound, the empty database error, and the
// sample budget.
func TestNNRequestSemantics(t *testing.T) {
	e := testWorld(t, 300, 0, 7)
	iss := testIssuer(t, geom.Pt(500, 500), 60)

	full := RequestNN(iss, 300)
	full.Seed = 3
	resp, err := e.Evaluate(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no NN matches")
	}
	var sum float64
	for i, m := range resp.Matches {
		sum += m.P
		if m.P <= 0 {
			t.Fatalf("non-positive NN probability: %+v", m)
		}
		if i > 0 && resp.Matches[i-1].P < m.P {
			t.Fatal("NN matches not in canonical order")
		}
	}
	if math.Abs(sum-1) > 0.2 {
		t.Fatalf("NN probabilities sum to %g, want ~1", sum)
	}

	topK := RequestNN(iss, 2)
	topK.Seed = 3
	top, err := e.Evaluate(context.Background(), topK)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Matches) > 2 {
		t.Fatalf("K=2 returned %d matches", len(top.Matches))
	}
	if len(resp.Matches) >= 2 && !reflect.DeepEqual(top.Matches, resp.Matches[:2]) {
		t.Fatal("top-K is not the prefix of the full answer")
	}

	thr := RequestNN(iss, 300)
	thr.Seed = 3
	thr.Threshold = 0.25
	conj, err := e.Evaluate(context.Background(), thr)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range conj.Matches {
		if m.P < 0.25 {
			t.Fatalf("threshold violated: %+v", m)
		}
	}

	// An empty point database has an empty answer, not an error — so
	// standing NN requests drain to empty like the range kinds.
	empty := testWorld(t, 0, 10, 8)
	er, err := empty.Evaluate(context.Background(), full)
	if err != nil {
		t.Fatalf("NN over an empty point database: %v", err)
	}
	if len(er.Matches) != 0 || er.Cost.Refined != 0 {
		t.Fatalf("empty-database NN answer: %+v", er.Result)
	}

	budget := RequestNN(iss, 300)
	budget.Seed = 3
	budget.Options.MaxSamples = 1
	if _, err := e.Evaluate(context.Background(), budget); !errors.Is(err, ErrSampleBudget) {
		t.Fatalf("1-sample budget: %v, want ErrSampleBudget", err)
	}
}

// TestNNMatchesLinearScanPruning: the R-tree branch-and-bound
// candidate set equals the exhaustive MinDist/MaxDist pruning over a
// full scan, and node accesses are recorded.
func TestNNMatchesLinearScanPruning(t *testing.T) {
	e := testWorld(t, 600, 0, 9)
	for _, c := range []geom.Point{{X: 500, Y: 500}, {X: 80, Y: 900}, {X: 990, Y: 20}} {
		iss := testIssuer(t, c, 70)
		u0 := iss.Region()

		// Exhaustive pruning over the table.
		tau := math.Inf(1)
		st := e.state.Load()
		var all []uncertain.PointObject
		st.points.Range(func(_ uncertain.ID, p uncertain.PointObject) bool {
			all = append(all, p)
			if d := u0.MaxDist(p.Loc); d < tau {
				tau = d
			}
			return true
		})
		want := map[uncertain.ID]bool{}
		for _, p := range all {
			if u0.MinDist(p.Loc) <= tau {
				want[p.ID] = true
			}
		}

		req := RequestNN(iss, 600)
		req.Seed = 5
		resp, err := e.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cost.Refined != len(want) {
			t.Fatalf("issuer %v: index pruning kept %d candidates, scan %d", c, resp.Cost.Refined, len(want))
		}
		for _, m := range resp.Matches {
			if !want[m.ID] {
				t.Fatalf("issuer %v: match %d not in the scan candidate set", c, m.ID)
			}
		}
		if resp.Cost.NodeAccesses <= 0 {
			t.Fatal("no node accesses recorded")
		}
	}
}

// TestNNSnapshotStableUnderUpdateFlood is the MVCC contract for the
// NN kind: a pinned snapshot's nearest-neighbor answer is bit-stable
// while ApplyUpdates floods the engine with point churn — NN is
// consistent under concurrent ingestion because it runs against the
// pinned R-tree like every other kind. Run under -race in CI.
func TestNNSnapshotStableUnderUpdateFlood(t *testing.T) {
	e := testWorld(t, 400, 0, 10)
	iss := testIssuer(t, geom.Pt(500, 500), 90)
	req := RequestNN(iss, 400)
	req.Seed = 13
	req.NNSamples = 400

	snap := e.Snapshot()
	defer snap.Close()
	baseline, err := snap.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(77))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]Update, 16)
			for j := range batch {
				batch[j] = Update{Op: OpUpsertPoint, Point: uncertain.PointObject{
					ID:  uncertain.ID(rng.Intn(400)),
					Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
				}}
			}
			e.ApplyUpdates(batch)
		}
	}()

	for i := 0; i < 30; i++ {
		got, err := snap.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripDurations(baseline.Result), stripDurations(got.Result)) {
			t.Fatalf("iteration %d: pinned NN answer changed under update flood", i)
		}
		// Unpinned evaluations race the flood too (fresh snapshot per
		// call) — they must not crash or misbehave, though their
		// answers track the moving data.
		if _, err := e.Evaluate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	// The shared-stream kernel made NN evaluation fast enough that all
	// 30 iterations can outrun the flood goroutine's first batch; wait
	// for the flood to land at least once before declaring it happened.
	for deadline := time.Now().Add(10 * time.Second); e.Version() == baseline.Version; {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if baseline.Version != snap.Version() {
		t.Fatalf("baseline version %d != snapshot version %d", baseline.Version, snap.Version())
	}
	if e.Version() == baseline.Version {
		t.Fatal("flood did not advance the engine version")
	}
}

// TestRequestGuardRegion: range requests guard their index probe
// region; NN requests guard everything (any point move can change the
// pruning distance).
func TestRequestGuardRegion(t *testing.T) {
	iss := testIssuer(t, geom.Pt(500, 500), 50)
	rangeReq := RequestUncertain(iss, 100, 100, 0.4)
	got, err := rangeReq.GuardRegion()
	if err != nil {
		t.Fatal(err)
	}
	want, err := GuardRegion(Query{Issuer: iss, W: 100, H: 100, Threshold: 0.4}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("range guard %v != legacy guard %v", got, want)
	}

	nnReq := RequestNN(iss, 3)
	guard, err := nnReq.GuardRegion()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []geom.Rect{
		geom.RectCentered(geom.Pt(0, 0), 1, 1),
		geom.RectCentered(geom.Pt(1e9, -1e9), 5, 5),
	} {
		if !guard.Intersects(r) {
			t.Fatalf("NN guard %v misses %v", guard, r)
		}
	}

	bad := RequestNN(iss, 0)
	if _, err := bad.GuardRegion(); err == nil {
		t.Fatal("invalid request produced a guard region")
	}
}

// TestNNGuardRegionTau: once an evaluation has measured tau, the NN
// guard collapses from the unbounded rectangle to the tau-ball
// bounding box (plus slack), and it provably contains every update
// that could change the answer — verified against a fresh evaluation
// after a far-outside move versus an inside move.
func TestNNGuardRegionTau(t *testing.T) {
	iss := testIssuer(t, geom.Pt(500, 500), 50)
	req := RequestNN(iss, 3)

	// Non-finite tau (no evaluation yet / empty database): unbounded.
	inf, err := req.GuardRegionTau(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if !inf.Intersects(geom.RectCentered(geom.Pt(1e12, 1e12), 1, 1)) {
		t.Fatalf("infinite-tau guard %v is not unbounded", inf)
	}

	guard, err := req.GuardRegionTau(40)
	if err != nil {
		t.Fatal(err)
	}
	u0 := iss.Region()
	wantLo := geom.Pt(u0.Lo.X-40*(1+nnGuardSlack), u0.Lo.Y-40*(1+nnGuardSlack))
	if math.Abs(guard.Lo.X-wantLo.X) > 1e-9 || math.Abs(guard.Lo.Y-wantLo.Y) > 1e-9 {
		t.Fatalf("tau guard %v, want Lo near %v", guard, wantLo)
	}
	// A point strictly outside the guard has MinDist > tau: it cannot
	// become the nearest neighbor or shrink tau.
	outside := geom.Pt(guard.Hi.X+1, guard.Hi.Y+1)
	if d := u0.MinDist(outside); d <= 40 {
		t.Fatalf("outside point MinDist %g <= tau 40", d)
	}

	// End to end: evaluate, rebuild the guard from Result.Tau, and
	// check that an update outside the guard leaves the answer
	// bit-identical while the evaluation stays correct after an
	// inside update (which must be re-evaluated, not skipped).
	e := testWorld(t, 200, 0, 21)
	req = RequestNN(testIssuer(t, geom.Pt(500, 500), 50), 200)
	req.Seed = 5
	base, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(base.Tau, 1) || base.Tau <= 0 {
		t.Fatalf("evaluation tau = %v", base.Tau)
	}
	guard, err = req.GuardRegionTau(base.Tau)
	if err != nil {
		t.Fatal(err)
	}
	far := geom.Pt(guard.Hi.X+100, guard.Hi.Y+100)
	rep := e.ApplyUpdates([]Update{{Op: OpUpsertPoint, Point: uncertain.PointObject{
		ID: 9999, Loc: far,
	}}})
	if rep.Touches(guard) {
		t.Fatalf("far insert at %v dirtied the guard %v", far, guard)
	}
	after, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripDurations(base.Result), stripDurations(after.Result)) {
		t.Fatal("answer changed after an update outside the tau guard")
	}
}
