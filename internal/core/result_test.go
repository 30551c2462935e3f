package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestTopK(t *testing.T) {
	r := Result{Matches: []Match{{ID: 1, P: 0.9}, {ID: 2, P: 0.5}, {ID: 3, P: 0.1}}}
	if got := r.TopK(2); len(got) != 2 || got[0].ID != 1 || got[1].ID != 2 {
		t.Fatalf("TopK(2) = %+v", got)
	}
	if got := r.TopK(10); len(got) != 3 {
		t.Fatalf("TopK(10) = %d matches", len(got))
	}
	if got := r.TopK(0); len(got) != 0 {
		t.Fatalf("TopK(0) = %d matches", len(got))
	}
	if got := r.TopK(-1); len(got) != 0 {
		t.Fatalf("TopK(-1) = %d matches", len(got))
	}
}

func TestExpectedCountAndQuality(t *testing.T) {
	ms := []Match{{ID: 1, P: 1}, {ID: 2, P: 0.5}, {ID: 3, P: 0.25}}
	if got := ExpectedCount(ms); !approx(got, 1.75, 1e-12) {
		t.Fatalf("ExpectedCount = %g", got)
	}
	if got := QualityScore(ms); !approx(got, 1.75/3, 1e-12) {
		t.Fatalf("QualityScore = %g", got)
	}
	if got := QualityScore(nil); got != 0 {
		t.Fatalf("empty QualityScore = %g", got)
	}
	// All-certain answers score 1.
	certain := []Match{{ID: 1, P: 1}, {ID: 2, P: 1}}
	if got := QualityScore(certain); got != 1 {
		t.Fatalf("certain QualityScore = %g", got)
	}
}

func TestAnswerEntropy(t *testing.T) {
	// A p=0.5 answer carries exactly one bit.
	if got := AnswerEntropy([]Match{{ID: 1, P: 0.5}}); !approx(got, 1, 1e-12) {
		t.Fatalf("entropy of fair coin = %g", got)
	}
	// Certain answers carry none.
	if got := AnswerEntropy([]Match{{ID: 1, P: 1}, {ID: 2, P: 0}}); got != 0 {
		t.Fatalf("entropy of certain answers = %g", got)
	}
	// Entropy is maximal at p=0.5.
	h4 := AnswerEntropy([]Match{{ID: 1, P: 0.4}})
	h5 := AnswerEntropy([]Match{{ID: 1, P: 0.5}})
	if h4 >= h5 {
		t.Fatalf("entropy not peaked at 0.5: h(0.4)=%g h(0.5)=%g", h4, h5)
	}
	if math.IsNaN(h4) {
		t.Fatal("NaN entropy")
	}
}

func TestQualityImprovesWithThreshold(t *testing.T) {
	// End-to-end: a constrained query's answer set has higher quality
	// score than the unconstrained one (it drops the long low-p tail).
	e := testWorld(t, 0, 1500, 41)
	iss := testIssuer(t, geom.Pt(500, 500), 80)
	unc, err := e.EvaluateUncertain(Query{Issuer: iss, W: 150, H: 150}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	con, err := e.EvaluateUncertain(Query{Issuer: iss, W: 150, H: 150, Threshold: 0.5}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(con.Matches) == 0 || len(unc.Matches) <= len(con.Matches) {
		t.Skip("layout produced no informative comparison")
	}
	if QualityScore(con.Matches) <= QualityScore(unc.Matches) {
		t.Fatalf("threshold did not improve quality: %g vs %g",
			QualityScore(con.Matches), QualityScore(unc.Matches))
	}
	// The expected count never exceeds the answer-set size.
	if ExpectedCount(unc.Matches) > float64(len(unc.Matches)) {
		t.Fatal("expected count exceeds answer count")
	}
}

// TestEvaluateUncertainBatch: an EvaluateAll fan-out of uncertain range
// requests answers the same at one worker and at six, and an invalid
// request fails only its own slot.
func TestEvaluateUncertainBatch(t *testing.T) {
	e := testWorld(t, 0, 1200, 42)
	rng := rand.New(rand.NewSource(43))
	var reqs []Request
	for i := 0; i < 12; i++ {
		iss := testIssuer(t, geom.Pt(rng.Float64()*1000, rng.Float64()*1000), 50)
		reqs = append(reqs, RequestUncertain(iss, 100, 100, 0.2))
	}
	// Invalid request mixed in: only its slot errors.
	reqs = append(reqs, Request{})

	serial, serialErrs := collectAll(t, e.EvaluateAll, reqs, AllOptions{})
	parallel, parallelErrs := collectAll(t, e.EvaluateAll, reqs, AllOptions{Workers: 6})
	for i := range reqs {
		if (serialErrs[i] == nil) != (parallelErrs[i] == nil) {
			t.Fatalf("request %d: error mismatch: %v vs %v", i, serialErrs[i], parallelErrs[i])
		}
		if serialErrs[i] != nil {
			continue
		}
		a := matchesToMap(serial[i].Matches)
		b := matchesToMap(parallel[i].Matches)
		if len(a) != len(b) {
			t.Fatalf("request %d: %d vs %d matches", i, len(a), len(b))
		}
		for id, p := range a {
			if !approx(b[id], p, 1e-12) {
				t.Fatalf("request %d object %d: %g vs %g", i, id, p, b[id])
			}
		}
	}
	if serialErrs[len(reqs)-1] == nil {
		t.Fatal("invalid request did not error")
	}
}
