package core

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// TestNonSquareQueriesMatchLinearScan uses W != H throughout — an
// axis mix-up anywhere in expansion, duality factors, p-expanded
// queries, or pruning would show up against the linear-scan oracle.
func TestNonSquareQueriesMatchLinearScan(t *testing.T) {
	e := testWorld(t, 1200, 1200, 51)
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 10; trial++ {
		// Non-square issuer region too.
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		issPDF := pdf.MustUniform(geom.RectCentered(c, 20+rng.Float64()*80, 10+rng.Float64()*40))
		iss, err := uncertain.NewObject(-1, issPDF, uncertain.PaperCatalogProbs())
		if err != nil {
			t.Fatal(err)
		}
		w := 20 + rng.Float64()*120
		h := 5 + rng.Float64()*40 // much flatter than wide
		qp := 0.0
		if trial%2 == 1 {
			qp = 0.1 + rng.Float64()*0.6
		}
		q := Query{Issuer: iss, W: w, H: h, Threshold: qp}

		resP, err := e.EvaluatePoints(q, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantP := 0
		for id := 0; id < e.NumPoints(); id++ {
			p, _ := e.Point(uncertain.ID(id))
			prob := PointQualification(issPDF, p.Loc, w, h)
			if accept(prob, qp) {
				wantP++
				if got, ok := matchesToMap(resP.Matches)[p.ID]; !ok || !approx(got, prob, 1e-12) {
					t.Fatalf("trial %d: point %d missing or wrong (%g vs %g)", trial, p.ID, got, prob)
				}
			}
		}
		if len(resP.Matches) != wantP {
			t.Fatalf("trial %d: %d point matches, want %d", trial, len(resP.Matches), wantP)
		}

		resU, err := e.EvaluateUncertain(q, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantU := 0
		for id := 0; id < e.NumUncertain(); id++ {
			o, _ := e.Object(uncertain.ID(id))
			prob := ObjectQualification(issPDF, o.PDF, w, h, ObjectEvalConfig{}, nil)
			if accept(prob, qp) {
				wantU++
				if got, ok := matchesToMap(resU.Matches)[o.ID]; !ok || !approx(got, prob, 1e-12) {
					t.Fatalf("trial %d: object %d missing or wrong", trial, o.ID)
				}
			}
		}
		if len(resU.Matches) != wantU {
			t.Fatalf("trial %d: %d uncertain matches, want %d", trial, len(resU.Matches), wantU)
		}
	}
}

// TestPreciseIssuerEndToEnd runs the whole engine with u = 0 (a
// degenerate issuer region): IPQ degenerates to an ordinary range
// query (p in {0, 1}) and IUQ to the classical probabilistic range
// query of the paper's Equation 3.
func TestPreciseIssuerEndToEnd(t *testing.T) {
	e := testWorld(t, 800, 800, 53)
	loc := geom.Pt(500, 500)
	iss, err := uncertain.NewObject(-1, pdf.MustUniform(geom.RectAt(loc)), uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Issuer: iss, W: 120, H: 90}
	queryRect := geom.RectCentered(loc, 120, 90)

	resP, err := e.EvaluatePoints(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resP.Matches {
		if m.P != 1 {
			t.Fatalf("precise issuer IPQ probability %g, want 1", m.P)
		}
		p, _ := e.Point(m.ID)
		if !queryRect.Contains(p.Loc) {
			t.Fatalf("point %d outside the range", m.ID)
		}
	}
	// No point inside the rectangle is missing.
	got := matchesToMap(resP.Matches)
	for id := 0; id < e.NumPoints(); id++ {
		p, _ := e.Point(uncertain.ID(id))
		if queryRect.Contains(p.Loc) {
			if _, ok := got[p.ID]; !ok {
				t.Fatalf("point %d inside the range missing", p.ID)
			}
		}
	}

	resU, err := e.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resU.Matches {
		o, _ := e.Object(m.ID)
		want := o.PDF.MassIn(queryRect) // Equation 3
		if !approx(m.P, want, 1e-12) {
			t.Fatalf("precise issuer IUQ: object %d p=%g, Eq.3 gives %g", m.ID, m.P, want)
		}
	}

	// Threshold works too.
	q.Threshold = 0.5
	resC, err := e.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range resC.Matches {
		if m.P < 0.5 {
			t.Fatalf("threshold violated with precise issuer: %g", m.P)
		}
	}
}

// TestExtremeGeometries pushes degenerate-but-legal configurations
// through the evaluators.
func TestExtremeGeometries(t *testing.T) {
	// Tiny query against a huge issuer region.
	iss := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 5000, 5000))
	if p := PointQualification(iss, geom.Pt(0, 0), 0.001, 0.001); p <= 0 || p > 1e-9 {
		t.Fatalf("tiny query probability %g", p)
	}
	// Huge query against a tiny issuer region: everything nearby is
	// certain.
	iss2 := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 0.5, 0.5))
	if p := PointQualification(iss2, geom.Pt(100, 100), 5000, 5000); p != 1 {
		t.Fatalf("huge query probability %g, want 1", p)
	}
	// Object region far larger than the expanded query.
	big := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 4000, 4000))
	small := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 10, 10))
	p := ObjectQualification(small, big, 20, 20, ObjectEvalConfig{}, nil)
	// The query can capture at most area (60x60 region of the huge
	// object's 8000x8000 support): p is small but non-zero.
	if p <= 0 || p > 1e-3 {
		t.Fatalf("giant object probability %g", p)
	}
}
