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

func nnTestIssuer(t *testing.T, center geom.Point, half float64) *uncertain.Object {
	t.Helper()
	p, err := pdf.NewUniform(geom.RectCentered(center, half, half))
	if err != nil {
		t.Fatal(err)
	}
	obj, err := uncertain.NewObject(uncertain.ID(-1), p, uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestNNCandidatesSplitEvaluate proves the sharded NN protocol on the
// core API alone: partition the points across N engines, collect
// NNCandidates from each, merge with the global tau, finish with
// EvaluateNNCandidates, and require the matches to be bit-identical to
// a single engine holding every point.
func TestNNCandidatesSplitEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var points []uncertain.PointObject
	for i := 0; i < 400; i++ {
		points = append(points, uncertain.PointObject{
			ID:  uncertain.ID(i + 1),
			Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
		})
	}
	single, err := NewEngine(points, nil, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}

	req := Request{
		Kind:      KindNN,
		Issuer:    nnTestIssuer(t, geom.Pt(420, 610), 40),
		K:         8,
		Threshold: 0.05,
		NNSamples: 512,
		Seed:      99,
	}
	want, err := single.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) == 0 {
		t.Fatal("reference evaluation produced no matches; pick a better region")
	}

	for _, shards := range []int{1, 2, 4} {
		parts := make([][]uncertain.PointObject, shards)
		for i, p := range points {
			parts[i%shards] = append(parts[i%shards], p)
		}
		tau := math.Inf(1)
		var sets []NNCandidateSet
		for _, part := range parts {
			eng, err := NewEngine(part, nil, EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			snap := eng.Snapshot()
			set, err := snap.NNCandidates(context.Background(), req, NNCandidateOptions{})
			snap.Close()
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, set)
			if set.Tau < tau {
				tau = set.Tau
			}
		}
		u0 := req.Issuer.Region()
		var merged []NNCandidate
		for _, set := range sets {
			for _, c := range set.Candidates {
				if u0.MinDist(geom.Pt(c.Loc[0], c.Loc[1])) <= tau {
					merged = append(merged, c)
				}
			}
		}
		got, err := EvaluateNNCandidates(context.Background(), req, merged, tau)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tau != want.Tau {
			t.Errorf("shards=%d: tau %v, want %v", shards, got.Tau, want.Tau)
		}
		if len(got.Matches) != len(want.Matches) {
			t.Fatalf("shards=%d: %d matches, want %d", shards, len(got.Matches), len(want.Matches))
		}
		for i := range got.Matches {
			if got.Matches[i].ID != want.Matches[i].ID ||
				math.Float64bits(got.Matches[i].P) != math.Float64bits(want.Matches[i].P) {
				t.Fatalf("shards=%d: match %d = %+v, want %+v",
					shards, i, got.Matches[i], want.Matches[i])
			}
		}
	}
}

// TestNNCandidatesTauBoundAndLimit checks the re-issue knobs: a tight
// TauBound shrinks the candidate list without changing tau, and Limit
// reports truncation instead of an unbounded response.
func TestNNCandidatesTauBoundAndLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var points []uncertain.PointObject
	for i := 0; i < 200; i++ {
		points = append(points, uncertain.PointObject{
			ID:  uncertain.ID(i + 1),
			Loc: geom.Pt(rng.Float64()*100, rng.Float64()*100),
		})
	}
	eng, err := NewEngine(points, nil, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{
		Kind:      KindNN,
		Issuer:    nnTestIssuer(t, geom.Pt(50, 50), 30),
		K:         5,
		NNSamples: 64,
		Seed:      1,
	}
	snap := eng.Snapshot()
	defer snap.Close()

	full, err := snap.NNCandidates(context.Background(), req, NNCandidateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || len(full.Candidates) == 0 {
		t.Fatalf("unexpected full set: %+v", full)
	}

	bounded, err := snap.NNCandidates(context.Background(), req, NNCandidateOptions{TauBound: full.Tau / 2})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Tau != full.Tau {
		t.Errorf("TauBound changed reported tau: %v vs %v", bounded.Tau, full.Tau)
	}
	if len(bounded.Candidates) >= len(full.Candidates) {
		t.Errorf("TauBound did not shrink candidates: %d vs %d", len(bounded.Candidates), len(full.Candidates))
	}

	capped, err := snap.NNCandidates(context.Background(), req, NNCandidateOptions{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated || len(capped.Candidates) > 3 {
		t.Errorf("Limit not honored: truncated=%v n=%d", capped.Truncated, len(capped.Candidates))
	}

	// Duplicate ids must be refused by the merge stage.
	dup := append([]NNCandidate{}, full.Candidates[0], full.Candidates[0])
	if _, err := EvaluateNNCandidates(context.Background(), req, dup, full.Tau); err == nil {
		t.Error("EvaluateNNCandidates accepted duplicate candidate ids")
	}
}
