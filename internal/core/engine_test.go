package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// testWorld builds a deterministic small database: points and uniform
// uncertain objects scattered over a 1000x1000 space.
func testWorld(t testing.TB, nPoints, nObjects int, seed int64) *Engine {
	t.Helper()
	return testWorldOpts(t, nPoints, nObjects, seed, EngineOptions{})
}

// testWorldOpts is testWorld with explicit engine options.
func testWorldOpts(t testing.TB, nPoints, nObjects int, seed int64, opts EngineOptions) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	points := make([]uncertain.PointObject, nPoints)
	for i := range points {
		points[i] = uncertain.PointObject{
			ID:  uncertain.ID(i),
			Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
		}
	}
	objects := make([]*uncertain.Object, nObjects)
	for i := range objects {
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		region := geom.RectCentered(c, 2+rng.Float64()*25, 2+rng.Float64()*25)
		o, err := uncertain.NewObject(uncertain.ID(i), pdf.MustUniform(region), uncertain.PaperCatalogProbs())
		if err != nil {
			t.Fatal(err)
		}
		objects[i] = o
	}
	e, err := NewEngine(points, objects, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// testIssuer builds a uniform issuer centered at c with half extent u.
func testIssuer(t testing.TB, c geom.Point, u float64) *uncertain.Object {
	t.Helper()
	iss, err := uncertain.NewObject(-1, pdf.MustUniform(geom.RectCentered(c, u, u)), uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	return iss
}

func matchesToMap(ms []Match) map[uncertain.ID]float64 {
	out := make(map[uncertain.ID]float64, len(ms))
	for _, m := range ms {
		out[m.ID] = m.P
	}
	return out
}

// requestFor is the Request of kind for a (Query, EvalOptions) pair —
// what the Query-form helpers below evaluate.
func requestFor(kind Kind, q Query, opts EvalOptions) Request {
	return Request{Kind: kind, Issuer: q.Issuer, W: q.W, H: q.H, Threshold: q.Threshold, Options: opts}
}

// The Query-form one-liners most tests are written in: IPQ / C-IPQ
// (EvaluatePoints) and IUQ / C-IUQ (EvaluateUncertain), optionally
// bounded by ctx.

func (e *Engine) EvaluatePoints(q Query, opts EvalOptions) (Result, error) {
	return e.EvaluatePointsContext(context.Background(), q, opts)
}

func (e *Engine) EvaluatePointsContext(ctx context.Context, q Query, opts EvalOptions) (Result, error) {
	resp, err := e.Evaluate(ctx, requestFor(KindPoints, q, opts))
	return resp.Result, err
}

func (e *Engine) EvaluateUncertain(q Query, opts EvalOptions) (Result, error) {
	return e.EvaluateUncertainContext(context.Background(), q, opts)
}

func (e *Engine) EvaluateUncertainContext(ctx context.Context, q Query, opts EvalOptions) (Result, error) {
	resp, err := e.Evaluate(ctx, requestFor(KindUncertain, q, opts))
	return resp.Result, err
}

func (s *Snapshot) EvaluateUncertain(q Query, opts EvalOptions) (Result, error) {
	resp, err := s.Evaluate(context.Background(), requestFor(KindUncertain, q, opts))
	return resp.Result, err
}

// evaluateSeeded evaluates q as a request of kind under opts and the
// sampling seed seed.
func (e *Engine) evaluateSeeded(kind Kind, q Query, opts EvalOptions, seed int64) (Result, error) {
	req := requestFor(kind, q, opts)
	req.Seed = seed
	resp, err := e.Evaluate(context.Background(), req)
	return resp.Result, err
}

// collectAll runs reqs through an EvaluateAll form (an engine's or a
// snapshot's) and returns each request's result and error in request
// order. A fan-out error fails the test through Errorf, so collectAll
// may run on any goroutine.
func collectAll(t testing.TB, evalAll func(context.Context, []Request, AllOptions, AllHandler) error, reqs []Request, opts AllOptions) ([]Result, []error) {
	t.Helper()
	res := make([]Result, len(reqs))
	errs := make([]error, len(reqs))
	if err := evalAll(context.Background(), reqs, opts, func(i int, resp Response, err error) {
		res[i], errs[i] = resp.Result, err
	}); err != nil {
		t.Errorf("EvaluateAll: %v", err)
	}
	return res, errs
}

func TestEngineConstruction(t *testing.T) {
	e := testWorld(t, 500, 300, 1)
	if e.NumPoints() != 500 || e.NumUncertain() != 300 {
		t.Fatalf("sizes: %d points, %d uncertain", e.NumPoints(), e.NumUncertain())
	}
	if _, ok := e.Point(10); !ok {
		t.Fatal("point 10 missing")
	}
	if _, ok := e.Object(10); !ok {
		t.Fatal("object 10 missing")
	}
	if _, ok := e.Point(9999); ok {
		t.Fatal("phantom point")
	}
}

func TestEngineRejectsDuplicates(t *testing.T) {
	pts := []uncertain.PointObject{{ID: 1, Loc: geom.Pt(0, 0)}, {ID: 1, Loc: geom.Pt(1, 1)}}
	if _, err := NewEngine(pts, nil, EngineOptions{}); err == nil {
		t.Fatal("duplicate point ids accepted")
	}
	region := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(1, 1)}
	o1, _ := uncertain.NewObject(7, pdf.MustUniform(region), uncertain.PaperCatalogProbs())
	o2, _ := uncertain.NewObject(7, pdf.MustUniform(region), uncertain.PaperCatalogProbs())
	if _, err := NewEngine(nil, []*uncertain.Object{o1, o2}, EngineOptions{}); err == nil {
		t.Fatal("duplicate object ids accepted")
	}
}

func TestQueryValidation(t *testing.T) {
	e := testWorld(t, 10, 10, 2)
	iss := testIssuer(t, geom.Pt(500, 500), 25)
	if _, err := e.EvaluatePoints(Query{Issuer: nil, W: 10, H: 10}, EvalOptions{}); err == nil {
		t.Fatal("nil issuer accepted")
	}
	if _, err := e.EvaluatePoints(Query{Issuer: iss, W: 0, H: 10}, EvalOptions{}); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := e.EvaluatePoints(Query{Issuer: iss, W: 10, H: 10, Threshold: 1.5}, EvalOptions{}); err == nil {
		t.Fatal("threshold > 1 accepted")
	}
	if _, err := e.EvaluateUncertain(Query{Issuer: iss, W: 10, H: 10}, EvalOptions{Method: Method(99)}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestIPQMatchesLinearScan(t *testing.T) {
	e := testWorld(t, 2000, 0, 3)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		iss := testIssuer(t, geom.Pt(rng.Float64()*1000, rng.Float64()*1000), 25+rng.Float64()*75)
		q := Query{Issuer: iss, W: 30 + rng.Float64()*70, H: 30 + rng.Float64()*70}
		res, err := e.EvaluatePoints(q, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Ground truth: duality probability for every point.
		want := map[uncertain.ID]float64{}
		for id := 0; id < e.NumPoints(); id++ {
			p, _ := e.Point(uncertain.ID(id))
			prob := PointQualification(iss.PDF, p.Loc, q.W, q.H)
			if prob > 0 {
				want[p.ID] = prob
			}
		}
		got := matchesToMap(res.Matches)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d matches, want %d", trial, len(got), len(want))
		}
		for id, p := range want {
			if !approx(got[id], p, 1e-12) {
				t.Fatalf("trial %d: point %d p=%g, want %g", trial, id, got[id], p)
			}
		}
	}
}

func TestIUQMatchesLinearScan(t *testing.T) {
	e := testWorld(t, 0, 1200, 5)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		iss := testIssuer(t, geom.Pt(rng.Float64()*1000, rng.Float64()*1000), 25+rng.Float64()*50)
		q := Query{Issuer: iss, W: 40 + rng.Float64()*60, H: 40 + rng.Float64()*60}
		res, err := e.EvaluateUncertain(q, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := map[uncertain.ID]float64{}
		for id := 0; id < e.NumUncertain(); id++ {
			o, _ := e.Object(uncertain.ID(id))
			prob := ObjectQualification(iss.PDF, o.PDF, q.W, q.H, ObjectEvalConfig{}, nil)
			if prob > 0 {
				want[o.ID] = prob
			}
		}
		got := matchesToMap(res.Matches)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d matches, want %d", trial, len(got), len(want))
		}
		for id, p := range want {
			if !approx(got[id], p, 1e-12) {
				t.Fatalf("trial %d: object %d p=%g, want %g", trial, id, got[id], p)
			}
		}
	}
}

func TestCIPQEquivalentWithAndWithoutPExpansion(t *testing.T) {
	// The Qp-expanded query is an optimization: it must not change the
	// result set relative to Minkowski filtering.
	e := testWorld(t, 3000, 0, 7)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		iss := testIssuer(t, geom.Pt(rng.Float64()*1000, rng.Float64()*1000), 50)
		qp := 0.1 + rng.Float64()*0.8
		q := Query{Issuer: iss, W: 80, H: 80, Threshold: qp}

		fast, err := e.EvaluatePoints(q, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := e.EvaluatePoints(q, EvalOptions{DisablePExpansion: true})
		if err != nil {
			t.Fatal(err)
		}
		a, b := matchesToMap(fast.Matches), matchesToMap(slow.Matches)
		if len(a) != len(b) {
			t.Fatalf("trial %d qp=%g: pexp %d matches vs minkowski %d", trial, qp, len(a), len(b))
		}
		for id, p := range b {
			if !approx(a[id], p, 1e-12) {
				t.Fatalf("trial %d: mismatch at %d", trial, id)
			}
		}
		// The optimization must not look at more candidates.
		if fast.Cost.Candidates > slow.Cost.Candidates {
			t.Fatalf("trial %d: pexp candidates %d > minkowski %d",
				trial, fast.Cost.Candidates, slow.Cost.Candidates)
		}
	}
}

func TestCIUQEquivalentAcrossStrategySettings(t *testing.T) {
	// All pruning-strategy subsets must return identical match sets —
	// pruning can only remove non-answers.
	e := testWorld(t, 0, 1500, 9)
	rng := rand.New(rand.NewSource(10))
	settings := []EvalOptions{
		{}, // everything on
		{Strategies: StrategySet{DisableStrategy1: true}},
		{Strategies: StrategySet{DisableStrategy2: true}},
		{Strategies: StrategySet{DisableStrategy3: true}},
		{Strategies: StrategySet{DisableStrategy1: true, DisableStrategy2: true, DisableStrategy3: true}},
		{DisableIndexPruning: true},
		{DisablePExpansion: true},
		{DisablePExpansion: true, DisableIndexPruning: true,
			Strategies: StrategySet{DisableStrategy1: true, DisableStrategy2: true, DisableStrategy3: true}},
	}
	for trial := 0; trial < 8; trial++ {
		iss := testIssuer(t, geom.Pt(rng.Float64()*1000, rng.Float64()*1000), 40)
		qp := 0.1 + rng.Float64()*0.7
		q := Query{Issuer: iss, W: 70, H: 70, Threshold: qp}

		ref, err := e.EvaluateUncertain(q, settings[len(settings)-1]) // no pruning at all
		if err != nil {
			t.Fatal(err)
		}
		refMap := matchesToMap(ref.Matches)
		for si, opts := range settings[:len(settings)-1] {
			res, err := e.EvaluateUncertain(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := matchesToMap(res.Matches)
			if len(got) != len(refMap) {
				t.Fatalf("trial %d setting %d qp=%.2f: %d matches, want %d",
					trial, si, qp, len(got), len(refMap))
			}
			for id, p := range refMap {
				if !approx(got[id], p, 1e-12) {
					t.Fatalf("trial %d setting %d: mismatch at %d: %g vs %g",
						trial, si, id, got[id], p)
				}
			}
		}
	}
}

func TestCIUQPruningReducesRefinement(t *testing.T) {
	e := testWorld(t, 0, 3000, 11)
	iss := testIssuer(t, geom.Pt(500, 500), 50)
	q := Query{Issuer: iss, W: 120, H: 120, Threshold: 0.5}

	pruned, err := e.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := e.EvaluateUncertain(q, EvalOptions{
		DisablePExpansion:   true,
		DisableIndexPruning: true,
		Strategies:          StrategySet{DisableStrategy1: true, DisableStrategy2: true, DisableStrategy3: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Cost.Refined >= unpruned.Cost.Refined {
		t.Fatalf("pruning did not reduce refinement: %d vs %d",
			pruned.Cost.Refined, unpruned.Cost.Refined)
	}
	if pruned.Cost.NodeAccesses > unpruned.Cost.NodeAccesses {
		t.Fatalf("pruning increased I/O: %d vs %d",
			pruned.Cost.NodeAccesses, unpruned.Cost.NodeAccesses)
	}
}

func TestBasicMethodAgreesWithEnhanced(t *testing.T) {
	e := testWorld(t, 300, 300, 12)
	iss := testIssuer(t, geom.Pt(500, 500), 60)
	q := Query{Issuer: iss, W: 100, H: 100}

	enh, err := e.EvaluatePoints(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bas, err := e.evaluateSeeded(KindPoints, q, EvalOptions{Method: MethodBasic, BasicSamples: 40000}, 13)
	if err != nil {
		t.Fatal(err)
	}
	enhMap, basMap := matchesToMap(enh.Matches), matchesToMap(bas.Matches)
	for id, p := range enhMap {
		if p < 0.02 {
			continue // MC may miss tiny probabilities
		}
		bp, ok := basMap[id]
		if !ok {
			t.Fatalf("basic method missed point %d (p=%g)", id, p)
		}
		if !approx(p, bp, 0.02) {
			t.Fatalf("point %d: enhanced %g vs basic %g", id, p, bp)
		}
	}

	enhU, err := e.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	basU, err := e.evaluateSeeded(KindUncertain, q, EvalOptions{Method: MethodBasic, BasicSamples: 40000}, 13)
	if err != nil {
		t.Fatal(err)
	}
	enhUMap, basUMap := matchesToMap(enhU.Matches), matchesToMap(basU.Matches)
	for id, p := range enhUMap {
		if p < 0.02 {
			continue
		}
		bp, ok := basUMap[id]
		if !ok {
			t.Fatalf("basic method missed object %d (p=%g)", id, p)
		}
		if !approx(p, bp, 0.02) {
			t.Fatalf("object %d: enhanced %g vs basic %g", id, p, bp)
		}
	}
}

func TestGaussianIssuerEndToEnd(t *testing.T) {
	// Gaussian issuer exercises the quadrature path through the whole
	// engine; results must match high-budget Monte-Carlo refinement.
	e := testWorld(t, 0, 400, 14)
	region := geom.RectCentered(geom.Pt(500, 500), 60, 60)
	g, err := pdf.NewTruncGaussian(region, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	iss, err := uncertain.NewObject(-1, g, uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Issuer: iss, W: 100, H: 100}
	quad, err := e.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := e.EvaluateUncertain(q, EvalOptions{
		Object: ObjectEvalConfig{ForceMonteCarlo: true, MCSamples: 50000},
	})
	if err != nil {
		t.Fatal(err)
	}
	quadMap, mcMap := matchesToMap(quad.Matches), matchesToMap(mc.Matches)
	for id, p := range quadMap {
		if p < 0.02 {
			continue
		}
		if !approx(p, mcMap[id], 0.02) {
			t.Fatalf("object %d: quadrature %g vs MC %g", id, p, mcMap[id])
		}
	}
}

func TestThresholdSemantics(t *testing.T) {
	// Every returned match satisfies p >= Qp; no qualifying object is
	// missing (checked against unconstrained results).
	e := testWorld(t, 1000, 1000, 15)
	iss := testIssuer(t, geom.Pt(400, 600), 50)
	qp := 0.3
	qc := Query{Issuer: iss, W: 90, H: 90, Threshold: qp}
	qu := Query{Issuer: iss, W: 90, H: 90}

	for _, kind := range []string{"points", "uncertain"} {
		eval := e.EvaluatePoints
		if kind == "uncertain" {
			eval = e.EvaluateUncertain
		}
		con, err := eval(qc, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		unc, err := eval(qu, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		conMap := matchesToMap(con.Matches)
		for id, p := range conMap {
			if p < qp {
				t.Fatalf("%s: match %d has p=%g < Qp=%g", kind, id, p, qp)
			}
		}
		for _, m := range unc.Matches {
			if m.P >= qp {
				if _, ok := conMap[m.ID]; !ok {
					t.Fatalf("%s: qualifying object %d (p=%g) missing from constrained result", kind, m.ID, m.P)
				}
			}
		}
	}
}

func TestMatchOrdering(t *testing.T) {
	e := testWorld(t, 2000, 0, 16)
	iss := testIssuer(t, geom.Pt(500, 500), 80)
	res, err := e.EvaluatePoints(Query{Issuer: iss, W: 150, H: 150}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) < 2 {
		t.Skip("not enough matches to check ordering")
	}
	for i := 1; i < len(res.Matches); i++ {
		prev, cur := res.Matches[i-1], res.Matches[i]
		if cur.P > prev.P || (cur.P == prev.P && cur.ID < prev.ID) {
			t.Fatalf("matches not ordered at %d: %+v then %+v", i, prev, cur)
		}
	}
}

func TestEmptySearchRegion(t *testing.T) {
	// A threshold so high that the Qp-expanded query is empty: no
	// matches, gracefully.
	e := testWorld(t, 100, 100, 17)
	// Issuer region much wider than the query: with qp near 1 the
	// p-expanded query inverts.
	iss := testIssuer(t, geom.Pt(500, 500), 200)
	q := Query{Issuer: iss, W: 10, H: 10, Threshold: 0.9}
	res, err := e.EvaluatePoints(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Fatalf("expected no matches, got %d", len(res.Matches))
	}
	resU, err := e.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resU.Matches) != 0 {
		t.Fatalf("expected no uncertain matches, got %d", len(resU.Matches))
	}
}

// TestSeedStreamsMatchMathRand: an evaluation's parent draw
// (parentDraw, mcbound.FirstUint64 with no seeding) is the first Int63
// of rand.New(rand.NewSource(seed)), and newRand draws what that
// generator draws, through Int63, Uint64, Float64 and Intn and after a
// re-seed.
func TestSeedStreamsMatchMathRand(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	seeds := []int64{0, 1, -1, 1<<31 - 1, -(1<<31 - 1), 89482311, math.MinInt64, math.MaxInt64}
	for range 200 {
		seeds = append(seeds, rng.Int63()-rng.Int63())
	}
	draw := []func(r *rand.Rand) uint64{
		func(r *rand.Rand) uint64 { return uint64(r.Int63()) },
		func(r *rand.Rand) uint64 { return r.Uint64() },
		func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) },
		func(r *rand.Rand) uint64 { return uint64(r.Intn(1000)) },
	}
	for i, seed := range seeds {
		if got, want := parentDraw(seed), rand.New(rand.NewSource(seed)).Int63(); got != want {
			t.Fatalf("seed %d: parent draw %#x, math/rand %#x", seed, got, want)
		}
		got, want := newRand(seed), rand.New(rand.NewSource(seed))
		for k := range 50 {
			f := draw[(i+k)%len(draw)]
			if g, w := f(got), f(want); g != w {
				t.Fatalf("seed %d: draw %d = %#x, math/rand %#x", seed, k, g, w)
			}
			if k == i%2 {
				got.Seed(seed + 1)
				want.Seed(seed + 1)
			}
		}
	}
}
