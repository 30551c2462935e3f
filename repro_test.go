package repro_test

import (
	"context"
	"math"
	"math/rand"
	"os/exec"
	"reflect"
	"testing"

	"repro"
)

// evalReq evaluates one request of the given kind through the
// Request API, returning the bare Result like the removed legacy
// methods did.
func evalReq(e *repro.Engine, kind repro.RequestKind, q repro.Query, opts repro.EvalOptions) (repro.Result, error) {
	resp, err := e.Evaluate(context.Background(), repro.Request{
		Kind: kind, Issuer: q.Issuer, W: q.W, H: q.H, Threshold: q.Threshold, Options: opts,
	})
	return resp.Result, err
}

// buildSmallWorld assembles a small end-to-end database through the
// public API only.
func buildSmallWorld(t testing.TB) (*repro.Engine, []repro.PointObject, []*repro.Object) {
	t.Helper()
	pts := repro.GeneratePoints(repro.PointConfig{
		N: 3000, Clusters: 10, ClusterSigma: 400, BackgroundFrac: 0.3, Seed: 21,
	})
	points := repro.BuildPointObjects(pts)
	rects := repro.GenerateRects(repro.RectConfig{
		N: 2500, Clusters: 10, ClusterSigma: 400, BackgroundFrac: 0.3,
		MeanHalfW: 25, MeanHalfH: 25, MinHalf: 2, MaxHalf: 120, Seed: 22,
	})
	objects, err := repro.BuildUncertainObjects(rects, repro.PDFUniform, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := repro.NewEngine(points, objects, repro.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return engine, points, objects
}

func newIssuer(t testing.TB, c repro.Point, u float64) *repro.Object {
	t.Helper()
	p, err := repro.NewUniformPDF(repro.RectCentered(c, u, u))
	if err != nil {
		t.Fatal(err)
	}
	iss, err := repro.NewIssuer(p)
	if err != nil {
		t.Fatal(err)
	}
	return iss
}

func TestPublicAPIEndToEnd(t *testing.T) {
	engine, points, objects := buildSmallWorld(t)
	if engine.NumPoints() != len(points) || engine.NumUncertain() != len(objects) {
		t.Fatalf("engine sizes %d/%d", engine.NumPoints(), engine.NumUncertain())
	}
	iss := newIssuer(t, repro.Pt(5000, 5000), 250)

	// IPQ.
	res, err := evalReq(engine, repro.KindPoints, repro.Query{Issuer: iss, W: 500, H: 500}, repro.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		if m.P <= 0 || m.P > 1 {
			t.Fatalf("IPQ match %d probability %g out of (0,1]", m.ID, m.P)
		}
	}

	// C-IUQ with a threshold.
	resU, err := evalReq(engine, repro.KindUncertain, repro.Query{Issuer: iss, W: 500, H: 500, Threshold: 0.4}, repro.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resU.Matches {
		if m.P < 0.4 {
			t.Fatalf("C-IUQ match %d probability %g below threshold", m.ID, m.P)
		}
	}
	if resU.Cost.Candidates == 0 && len(resU.Matches) > 0 {
		t.Fatal("matches without candidates")
	}

	// Standalone qualification helpers agree with the engine.
	if len(res.Matches) > 0 {
		m := res.Matches[0]
		po, ok := engine.Point(m.ID)
		if !ok {
			t.Fatal("match id not resolvable")
		}
		if got := repro.PointQualification(iss.PDF, po.Loc, 500, 500); math.Abs(got-m.P) > 1e-12 {
			t.Fatalf("facade PointQualification %g != engine %g", got, m.P)
		}
	}
}

func TestPublicAPINearestNeighbor(t *testing.T) {
	engine, points, _ := buildSmallWorld(t)
	issPDF, err := repro.NewUniformPDF(repro.RectCentered(repro.Pt(5000, 5000), 200, 200))
	if err != nil {
		t.Fatal(err)
	}
	// The deprecated slice-based shim still answers (per-candidate
	// streams sum to 1 only up to sampling error).
	res, err := repro.EvaluateNN(points, issPDF, 4000, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("no NN matches")
	}
	var sum float64
	for _, m := range res.Matches {
		sum += m.P
	}
	if math.Abs(sum-1) > 0.1 {
		t.Fatalf("NN probabilities sum to %g, want ~1", sum)
	}
	th, err := repro.EvaluateNNThreshold(points, issPDF, 0.2, 4000, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range th.Matches {
		if m.P < 0.2 {
			t.Fatalf("NN threshold violated: %+v", m)
		}
	}

	// The first-class path: RequestNN through the engine's point
	// index. The candidate set matches the slice-based pruning, node
	// accesses are recorded, and the threshold applies.
	issuer, err := repro.NewIssuer(issPDF)
	if err != nil {
		t.Fatal(err)
	}
	req := repro.RequestNN(issuer, len(points))
	req.NNSamples = 4000
	req.Seed = 23
	resp, err := engine.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != repro.KindNN {
		t.Fatalf("response kind %v", resp.Kind)
	}
	if resp.Cost.Refined != res.Candidates {
		t.Fatalf("engine NN candidates %d != slice pruning %d", resp.Cost.Refined, res.Candidates)
	}
	if resp.Cost.NodeAccesses == 0 {
		t.Fatal("engine NN recorded no node accesses")
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no engine NN matches")
	}
}

func TestPublicAPIGaussian(t *testing.T) {
	region := repro.RectCentered(repro.Pt(100, 100), 50, 50)
	g, err := repro.NewGaussianPDF(region, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	u, err := repro.NewUniformPDF(region)
	if err != nil {
		t.Fatal(err)
	}
	// Gaussian concentrates near the center: qualification of a point
	// at the center with a small query should exceed the uniform's.
	pg := repro.PointQualification(g, repro.Pt(100, 100), 20, 20)
	pu := repro.PointQualification(u, repro.Pt(100, 100), 20, 20)
	if pg <= pu {
		t.Fatalf("Gaussian center qualification %g not above uniform %g", pg, pu)
	}
	// Object qualification through the facade.
	objPDF, err := repro.NewUniformPDF(repro.RectCentered(repro.Pt(120, 100), 10, 10))
	if err != nil {
		t.Fatal(err)
	}
	p := repro.ObjectQualification(g, objPDF, 40, 40, repro.ObjectEvalConfig{})
	if p <= 0 || p > 1 {
		t.Fatalf("object qualification %g out of range", p)
	}
}

func TestPublicAPIGridPDF(t *testing.T) {
	region := repro.RectCentered(repro.Pt(0, 0), 10, 10)
	weights := []float64{1, 0, 0, 1}
	g, err := repro.NewGridPDF(region, 2, 2, weights)
	if err != nil {
		t.Fatal(err)
	}
	// Mass splits between the SW and NE quadrants.
	sw := repro.RectFromCorners(repro.Pt(-10, -10), repro.Pt(0, 0))
	if got := g.MassIn(sw); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("SW mass = %g", got)
	}
}

func TestPublicAPIExpandedQuery(t *testing.T) {
	u0 := repro.RectCentered(repro.Pt(0, 0), 250, 250)
	exp := repro.ExpandedQuery(u0, 500, 500)
	want := repro.RectCentered(repro.Pt(0, 0), 750, 750)
	if exp != want {
		t.Fatalf("ExpandedQuery = %v, want %v", exp, want)
	}
}

func TestDatasetConfigsThroughFacade(t *testing.T) {
	if repro.CaliforniaConfig().N != 62000 {
		t.Fatal("California config size")
	}
	if repro.LongBeachConfig().N != 53000 {
		t.Fatal("Long Beach config size")
	}
	if repro.DataExtent != 10000 {
		t.Fatal("extent")
	}
	if len(repro.PaperCatalogProbs()) != 10 {
		t.Fatal("catalog probs")
	}
}

func TestPublicAPIDynamicUpdates(t *testing.T) {
	engine, _, _ := buildSmallWorld(t)
	iss := newIssuer(t, repro.Pt(5000, 5000), 200)
	q := repro.Query{Issuer: iss, W: 400, H: 400}

	before, err := evalReq(engine, repro.KindUncertain, q, repro.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh object dead-center: must join the answers with p=1.
	p, err := repro.NewUniformPDF(repro.RectCentered(repro.Pt(5000, 5000), 20, 20))
	if err != nil {
		t.Fatal(err)
	}
	obj, err := repro.NewUncertainObject(999999, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.InsertObject(obj); err != nil {
		t.Fatal(err)
	}
	after, err := evalReq(engine, repro.KindUncertain, q, repro.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Matches) != len(before.Matches)+1 {
		t.Fatalf("matches %d -> %d", len(before.Matches), len(after.Matches))
	}
	ok, err := engine.DeleteObject(999999)
	if err != nil || !ok {
		t.Fatalf("DeleteObject: %t %v", ok, err)
	}
	if err := engine.InsertPoint(repro.PointObject{ID: 888888, Loc: repro.Pt(5000, 5000)}); err != nil {
		t.Fatal(err)
	}
	resP, err := evalReq(engine, repro.KindPoints, q, repro.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range resP.Matches {
		if m.ID == 888888 && m.P == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted point not found with p=1")
	}
}

// TestPublicAPIParallel fans requests out through the facade's
// EvaluateAll, eight at a time, and checks every answer against the
// same request evaluated alone.
func TestPublicAPIParallel(t *testing.T) {
	engine, _, _ := buildSmallWorld(t)
	var reqs []repro.Request
	for i := 0; i < 8; i++ {
		iss := newIssuer(t, repro.Pt(3000+float64(i)*500, 5000), 250)
		reqs = append(reqs, repro.Request{Kind: repro.KindUncertain, Issuer: iss, W: 600, H: 600, Threshold: 0.2, Seed: int64(i + 1)})
	}
	par := make([]repro.Result, len(reqs))
	err := engine.EvaluateAll(context.Background(), reqs, repro.AllOptions{Workers: 8},
		func(i int, resp repro.Response, err error) {
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
			par[i] = resp.Result
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		serial, err := engine.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial.Matches, par[i].Matches) {
			t.Fatalf("request %d: serial %d matches vs parallel %d", i, len(serial.Matches), len(par[i].Matches))
		}
	}
}

func TestPublicAPIConvexRegions(t *testing.T) {
	disc, err := repro.NewDiscPDF(repro.Pt(100, 100), 50, 48)
	if err != nil {
		t.Fatal(err)
	}
	// Exact duality through the facade: a point at the disc center
	// with a query covering the whole disc has probability 1.
	if got := repro.PointQualification(disc, repro.Pt(100, 100), 60, 60); math.Abs(got-1) > 1e-9 {
		t.Fatalf("covering query probability = %g", got)
	}
	tri, err := repro.NewConvexPDF([]repro.Point{
		repro.Pt(0, 0), repro.Pt(10, 0), repro.Pt(0, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tri.MassIn(repro.RectFromCorners(repro.Pt(0, 0), repro.Pt(5, 5))); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("triangle half mass = %g", got)
	}
}

// TestPublicAPIContinuousMonitor drives the continuous-query monitor
// through the facade: a standing query, an update batch through
// Monitor.ApplyUpdates, delta consumption, and guard-region
// filtering of an irrelevant batch.
func TestPublicAPIContinuousMonitor(t *testing.T) {
	engine, _, _ := buildSmallWorld(t)
	mon := repro.NewMonitor(engine, repro.MonitorConfig{Workers: 2})

	q := repro.Query{Issuer: newIssuer(t, repro.Pt(5000, 5000), 100), W: 400, H: 400}
	sub, err := mon.Register(repro.RequestUncertain(q.Issuer, q.W, q.H, q.Threshold))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	snap, err := sub.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entered) != len(sub.Snapshot()) {
		t.Fatalf("snapshot delta %d entries, Snapshot %d", len(snap.Entered), len(sub.Snapshot()))
	}

	// Drop a fresh object into the query range: it must enter.
	pdf, err := repro.NewUniformPDF(repro.RectCentered(repro.Pt(5000, 5000), 20, 20))
	if err != nil {
		t.Fatal(err)
	}
	obj, err := repro.NewUncertainObject(90001, pdf, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := mon.ApplyUpdates(context.Background(), []repro.Update{
		{Op: repro.OpUpsertObject, Object: obj},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Reevaluated != 1 {
		t.Fatalf("outcome: %+v", out)
	}
	d, err := sub.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range d.Entered {
		if m.ID == 90001 {
			found = true
		}
	}
	if !found {
		t.Fatalf("inserted object missing from delta: %+v", d)
	}

	// A far-away update is filtered by the guard region.
	out, err = mon.ApplyUpdates(context.Background(), []repro.Update{
		{Op: repro.OpUpsertPoint, Point: repro.PointObject{ID: 90002, Loc: repro.Pt(100, 100)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Reevaluated != 0 || out.Skipped != 1 {
		t.Fatalf("far update not guard-filtered: %+v", out)
	}

	guard, err := repro.GuardRegion(q, repro.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !guard.ContainsRect(repro.RectCentered(repro.Pt(5000, 5000), 100, 100)) {
		t.Fatalf("guard region %v does not cover the issuer", guard)
	}
}

// benchmark/ is a module of its own (replace repro => ../), so
// `go build ./... && go test ./...` never compiles it. Vetting it from
// here lets tier-1 see an internal API change that breaks the
// benchmark; `make bench-e2e-smoke` still runs its tests and smoke.
func TestBenchmarkModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", ".")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet . in benchmark/: %v\n%s", err, out)
	}
}
