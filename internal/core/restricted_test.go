package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// mixedPDF builds the i-th test pdf centered at c: uniform, disc, grid
// and mixture in rotation, so the world holds separable and
// non-separable objects side by side.
func mixedPDF(t testing.TB, i int, c geom.Point, half float64) pdf.PDF {
	t.Helper()
	var p pdf.PDF
	var err error
	region := geom.RectCentered(c, half, half)
	switch i % 4 {
	case 0:
		p = pdf.MustUniform(region)
	case 1:
		p, err = pdf.NewDisc(c, half, 12)
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

// mixedWorld is testWorld with mixedPDF objects.
func mixedWorld(t testing.TB, nPoints, nObjects int, seed int64) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	points := make([]uncertain.PointObject, nPoints)
	for i := range points {
		points[i] = uncertain.PointObject{ID: uncertain.ID(i), Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)}
	}
	objects := make([]*uncertain.Object, nObjects)
	for i := range objects {
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		o, err := uncertain.NewObject(uncertain.ID(i), mixedPDF(t, i, c, 4+rng.Float64()*25), uncertain.PaperCatalogProbs())
		if err != nil {
			t.Fatal(err)
		}
		objects[i] = o
	}
	e, err := NewEngine(points, objects, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEvaluateOnlyAllIDsEqualsFull: restricted evaluation over every id
// of the table is the full evaluation bit for bit — matches,
// probabilities, order, and every cost counter but the index's node
// accesses — for both range kinds, closed-form and Monte-Carlo
// refinement, with and without index-level and object-level pruning.
// A random subset then yields exactly the full answer's restriction.
//
// It is also the cross-check of the range path's two candidate
// sources: a full evaluation surfaces its candidates through the
// index's probe and pruning, a restricted one takes each listed id's
// rectangle from the object table and runs the index's leaf test on it
// alone; both then prune and refine a leaf record from its rectangle
// (engineState.objects). Beside mixedWorld it runs over
// leafTestWorld — Gaussian objects and uniform ones whose catalogs are
// not at the index's values among the leaf records, once with integer
// coordinates so that region edges, bound lines and query edges meet —
// against a uniform and a Gaussian issuer (both separable, so leaf
// records refine in closed form).
func TestEvaluateOnlyAllIDsEqualsFull(t *testing.T) {
	type world struct {
		name              string
		e                 *Engine
		nPoints, nObjects int
		leaf              map[uncertain.ID]bool // nil: not checked for leaf records
	}
	worlds := []world{{name: "mixed", e: mixedWorld(t, 400, 500, 71), nPoints: 400, nObjects: 500}}
	for _, aligned := range []bool{false, true} {
		objs, leaf := leafTestWorld(t, 700, 41, aligned)
		e, err := NewEngine(nil, objs, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, world{name: fmt.Sprintf("leaf records (aligned=%v)", aligned), e: e, nObjects: len(objs), leaf: leaf})
	}
	g, err := pdf.NewTruncGaussian(geom.RectCentered(geom.Pt(500, 500), 70, 50), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	gauss, err := uncertain.NewObject(-1, g, uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	issuers := map[string]*uncertain.Object{"uniform": testIssuer(t, geom.Pt(500, 500), 60), "gaussian": gauss}
	ctx := context.Background()

	allIDs := func(n int) []uncertain.ID {
		ids := make([]uncertain.ID, n+1)
		for i := range ids {
			ids[i] = uncertain.ID(i) // the last one is absent from the table
		}
		return ids
	}
	type variant struct {
		name string
		opts EvalOptions
	}
	variants := []variant{
		{"default", EvalOptions{}},
		{"monte-carlo", EvalOptions{PointMCSamples: 300, Object: ObjectEvalConfig{ForceMonteCarlo: true, MCSamples: 300}}},
		{"no-adaptive", EvalOptions{PointMCSamples: 200, Object: ObjectEvalConfig{MCSamples: 200, Adaptive: AdaptiveOff}}},
		{"no-index-pruning", EvalOptions{DisableIndexPruning: true}},
		{"no-strategy-1", EvalOptions{Strategies: StrategySet{DisableStrategy1: true}}},
		{"no-strategies", EvalOptions{Strategies: StrategySet{DisableStrategy1: true, DisableStrategy2: true, DisableStrategy3: true}}},
		{"no-p-expansion", EvalOptions{DisablePExpansion: true}},
	}
	rng := rand.New(rand.NewSource(72))
	for _, w := range worlds {
		snap := w.e.Snapshot()
		defer snap.Close()
		for _, kind := range []Kind{KindUncertain, KindPoints} {
			n := w.nObjects
			if kind == KindPoints {
				n = w.nPoints
			}
			if n == 0 {
				continue
			}
			for issName, iss := range issuers {
				for _, v := range variants {
					for _, qp := range []float64{0, 0.1, 0.35, 0.55, 0.9} {
						label := fmt.Sprintf("%s/%v/%s issuer/%s/qp=%g", w.name, kind, issName, v.name, qp)
						req := Request{Kind: kind, Issuer: iss, W: 180, H: 180, Threshold: qp, Options: v.opts, Seed: 9}
						full, err := snap.Evaluate(ctx, req)
						if err != nil {
							t.Fatal(err)
						}
						only, err := snap.EvaluateOnly(ctx, req, allIDs(n))
						if err != nil {
							t.Fatal(err)
						}
						want, got := stripDurations(full.Result), stripDurations(only.Result)
						if got.Cost.NodeAccesses != 0 {
							t.Fatalf("%s: restricted evaluation probed the index (%d node accesses)", label, got.Cost.NodeAccesses)
						}
						want.Cost.NodeAccesses = 0
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s: restricted over all ids != full\nfull: %d matches, cost %+v\nonly: %d matches, cost %+v",
								label, len(want.Matches), want.Cost, len(got.Matches), got.Cost)
						}
						for i := range got.Matches {
							if !bitsEqual(got.Matches[i].P, want.Matches[i].P) {
								t.Fatalf("%s: match %d probability bits differ", label, i)
							}
						}
						if qp == 0 && len(full.Matches) == 0 {
							t.Fatalf("%s: empty unconstrained answer; the comparison is vacuous", label)
						}
						if qp == 0 && w.leaf != nil {
							var leaves, others int
							for _, m := range full.Matches {
								if w.leaf[m.ID] {
									leaves++
								} else {
									others++
								}
							}
							if leaves == 0 || others == 0 {
								t.Fatalf("%s: %d leaf-record and %d other matches; the cross-check is vacuous", label, leaves, others)
							}
						}

						var subset []uncertain.ID
						inSubset := map[uncertain.ID]bool{}
						for id := 0; id < n; id++ {
							if rng.Intn(3) == 0 {
								subset = append(subset, uncertain.ID(id))
								inSubset[uncertain.ID(id)] = true
							}
						}
						part, err := snap.EvaluateOnly(ctx, req, subset)
						if err != nil {
							t.Fatal(err)
						}
						var restricted []Match
						for _, m := range full.Matches {
							if inSubset[m.ID] {
								restricted = append(restricted, m)
							}
						}
						if !reflect.DeepEqual(restricted, part.Matches) {
							t.Fatalf("%s: subset answer is not the full answer's restriction", label)
						}
					}
				}
			}
		}
	}
}

// TestEvaluateOnlyRejectsCoupledRequests: NN and MethodBasic answers
// are not per-object functions; an empty id set is an empty answer.
func TestEvaluateOnlyRejectsCoupledRequests(t *testing.T) {
	e := testWorld(t, 100, 100, 73)
	snap := e.Snapshot()
	defer snap.Close()
	iss := testIssuer(t, geom.Pt(500, 500), 50)

	nn := RequestNN(iss, 3)
	basic := RequestUncertain(iss, 100, 100, 0)
	basic.Options.Method = MethodBasic
	for _, req := range []Request{nn, basic} {
		if req.Decomposable() {
			t.Fatalf("%v/%v reported decomposable", req.Kind, req.Options.Method)
		}
		if _, err := snap.EvaluateOnly(context.Background(), req, []uncertain.ID{1}); !errors.Is(err, ErrNotDecomposable) {
			t.Fatalf("%v/%v: err = %v, want ErrNotDecomposable", req.Kind, req.Options.Method, err)
		}
	}

	rangeReq := RequestUncertain(iss, 300, 300, 0)
	if !rangeReq.Decomposable() {
		t.Fatal("enhanced range request not decomposable")
	}
	resp, err := snap.EvaluateOnly(context.Background(), rangeReq, nil)
	if err != nil || len(resp.Matches) != 0 || resp.Version != snap.Version() {
		t.Fatalf("empty id set: %+v, %v", resp, err)
	}
}
