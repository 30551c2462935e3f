package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
)

// adaptiveOpts builds forced-Monte-Carlo options; evaluated under one
// seed, the adaptive and full-budget runs consume identical
// per-candidate sample streams (streams are derived from the seed's
// parent draw and each candidate's object id; see refineSurvivors).
func adaptiveOpts(samples int, mode AdaptiveMode) EvalOptions {
	return EvalOptions{
		Object: ObjectEvalConfig{
			ForceMonteCarlo: true,
			MCSamples:       samples,
			Adaptive:        mode,
		},
	}
}

// TestAdaptiveQualifyingSetBitIdentical is the adaptive-refinement
// correctness contract: across thresholds, the set of qualifying
// object ids under early termination must be exactly the
// qualifying set of full-budget refinement on the same seeds.
func TestAdaptiveQualifyingSetBitIdentical(t *testing.T) {
	e := testWorld(t, 0, 900, 47)
	iss := testIssuer(t, geom.Pt(480, 520), 70)

	for _, qp := range []float64{0.1, 0.5, 0.9} {
		q := Query{Issuer: iss, W: 220, H: 220, Threshold: qp}

		full, err := e.evaluateSeeded(KindUncertain, q, adaptiveOpts(512, AdaptiveOff), 7)
		if err != nil {
			t.Fatal(err)
		}
		adpt, err := e.evaluateSeeded(KindUncertain, q, adaptiveOpts(512, AdaptiveAuto), 7)
		if err != nil {
			t.Fatal(err)
		}

		fullSet := matchesToMap(full.Matches)
		adptSet := matchesToMap(adpt.Matches)
		if len(fullSet) != len(adptSet) {
			t.Fatalf("qp=%g: %d qualifying adaptive vs %d full", qp, len(adptSet), len(fullSet))
		}
		for id := range fullSet {
			if _, ok := adptSet[id]; !ok {
				t.Fatalf("qp=%g: object %d qualifies full-budget but not adaptive", qp, id)
			}
		}

		// The saving must be real and observable in Cost.
		if full.Cost.EarlyStopped != 0 {
			t.Fatalf("qp=%g: full-budget run reports %d early stops", qp, full.Cost.EarlyStopped)
		}
		if want := int64(full.Cost.Refined) * 512; full.Cost.SamplesUsed != want {
			t.Fatalf("qp=%g: full-budget SamplesUsed = %d, want %d", qp, full.Cost.SamplesUsed, want)
		}
		if full.Cost.Refined > 0 {
			if adpt.Cost.SamplesUsed >= full.Cost.SamplesUsed {
				t.Fatalf("qp=%g: adaptive used %d samples, full %d — no saving",
					qp, adpt.Cost.SamplesUsed, full.Cost.SamplesUsed)
			}
			if adpt.Cost.EarlyStopped == 0 {
				t.Fatalf("qp=%g: no candidate early-stopped", qp)
			}
		}
	}
}

// TestAdaptiveClosedFormUntouched: closed-form refinement draws no
// samples and never early-stops, whatever the threshold, and the
// counters say so.
func TestAdaptiveClosedFormUntouched(t *testing.T) {
	e := testWorld(t, 0, 500, 49)
	iss := testIssuer(t, geom.Pt(500, 500), 60)
	res, err := e.EvaluateUncertain(Query{Issuer: iss, W: 200, H: 200, Threshold: 0.4}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Refined == 0 {
		t.Fatal("workload refined nothing; world too sparse for the test")
	}
	if res.Cost.SamplesUsed != 0 || res.Cost.EarlyStopped != 0 {
		t.Fatalf("closed-form cost reports sampling: %+v", res.Cost)
	}
}

// TestQualifyThresholdDecisionAgreesWithFullBudget drives the
// qualifier directly: for many objects and thresholds, the early-stop
// decision (accept/reject at qp) must match the full-budget decision
// on the same stream, and the early-stopped estimate must land on the
// same side of qp as the proof claims.
func TestQualifyThresholdDecisionAgreesWithFullBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	issPDF := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 50, 50))
	oq := NewObjectQualifier(issPDF, 80, 80)

	for trial := 0; trial < 200; trial++ {
		c := geom.Pt((rng.Float64()*2-1)*160, (rng.Float64()*2-1)*160)
		obj := pdf.MustUniform(geom.RectCentered(c, 5+rng.Float64()*40, 5+rng.Float64()*40))
		qp := [3]float64{0.1, 0.5, 0.9}[trial%3]
		seed := int64(3000 + trial)

		cfgFull := ObjectEvalConfig{ForceMonteCarlo: true, MCSamples: 512, Adaptive: AdaptiveOff}
		pFull, nFull, earlyFull := oq.QualifyThreshold(obj, qp, cfgFull, rand.New(rand.NewSource(seed)))
		if earlyFull || nFull != 512 {
			t.Fatalf("trial %d: AdaptiveOff stopped early (n=%d)", trial, nFull)
		}

		cfgAdpt := cfgFull
		cfgAdpt.Adaptive = AdaptiveAuto
		pAdpt, nAdpt, early := oq.QualifyThreshold(obj, qp, cfgAdpt, rand.New(rand.NewSource(seed)))
		if nAdpt > 512 {
			t.Fatalf("trial %d: drew %d > budget", trial, nAdpt)
		}
		if early && nAdpt >= 512 {
			t.Fatalf("trial %d: early stop after full budget", trial)
		}
		if accept(pAdpt, qp) != accept(pFull, qp) {
			t.Fatalf("trial %d qp=%g: adaptive decision %v (p=%g, n=%d) != full %v (p=%g)",
				trial, qp, accept(pAdpt, qp), pAdpt, nAdpt, accept(pFull, qp), pFull)
		}
	}
}

// TestAdaptivePrunedVsUnprunedAgree: per-object sample streams mean an
// object's refined probability no longer depends on the pruning
// configuration or refinement order, so the pruned and unpruned paths
// must agree exactly on shared candidates — a stronger form of the MC
// guard-band test in convex_test.go.
func TestAdaptivePrunedVsUnprunedAgree(t *testing.T) {
	e := testWorld(t, 0, 600, 51)
	iss := testIssuer(t, geom.Pt(450, 540), 60)
	q := Query{Issuer: iss, W: 200, H: 200, Threshold: 0.4}

	mk := func(disable bool) EvalOptions {
		o := adaptiveOpts(256, AdaptiveAuto)
		if disable {
			o.DisablePExpansion = true
			o.DisableIndexPruning = true
			o.Strategies = StrategySet{DisableStrategy1: true, DisableStrategy2: true, DisableStrategy3: true}
		}
		return o
	}
	pruned, err := e.evaluateSeeded(KindUncertain, q, mk(false), 13)
	if err != nil {
		t.Fatal(err)
	}
	unpruned, err := e.evaluateSeeded(KindUncertain, q, mk(true), 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Matches) == 0 {
		t.Fatal("pruned path matched nothing; world too sparse for the test")
	}
	// Every pruned-path match was refined in both runs from the same
	// object-keyed stream, so it must appear unpruned with the exact
	// same probability. (The unpruned path may hold extra matches:
	// pruning bounds the true probability, while acceptance tests the
	// noisy estimate.)
	unprunedMap := matchesToMap(unpruned.Matches)
	for _, m := range pruned.Matches {
		if got, ok := unprunedMap[m.ID]; !ok || got != m.P {
			t.Fatalf("object %d: pruned p=%g vs unpruned p=%g (present=%t)", m.ID, m.P, got, ok)
		}
	}
}
