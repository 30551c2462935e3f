package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// TestSmoothIssuerGoldenPins pins the Gauss–Legendre branch of Lemma 4
// bit for bit: truncated-Gaussian issuers (whose marginal CDFs are not
// piecewise linear, so every axis factor is integrated by the 24-node
// rule) against uniform and Gaussian objects through
// ObjectQualification, plus full Gaussian-issuer evaluations of a test
// world. TestKernelGoldenPins only has uniform and disc issuers, which
// refine in closed form or by sampling and never reach the rule.
// Regenerate with `go test ./internal/core -run
// TestSmoothIssuerGoldenPins -update` only when an answer is meant to
// change.
func TestSmoothIssuerGoldenPins(t *testing.T) {
	gauss := func(r geom.Rect, sx, sy float64) pdf.PDF {
		p, err := pdf.NewTruncGaussian(r, sx, sy)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	issuers := []pdf.PDF{
		gauss(geom.RectCentered(geom.Pt(500, 500), 40, 40), 0, 0),
		gauss(geom.RectCentered(geom.Pt(500, 500), 40, 15), 8, 30),
		gauss(geom.RectCentered(geom.Pt(120.5, 730.25), 3, 60), 0, 10),
		gauss(geom.RectCentered(geom.Pt(0, 0), 100, 100), 500, 500),
	}
	// objects returns the uniform and Gaussian objects laid out around
	// c, so every pair overlaps the expanded query.
	objects := func(c geom.Point) []pdf.PDF {
		var out []pdf.PDF
		for i, off := range []geom.Point{{X: 0, Y: 0}, {X: 35, Y: -20}, {X: -70, Y: 55}, {X: 120, Y: 0}, {X: 3.5, Y: 141}} {
			at := geom.Pt(c.X+off.X, c.Y+off.Y)
			half := 5 + 7*float64(i)
			out = append(out, pdf.MustUniform(geom.RectCentered(at, half, half/2+1)))
			out = append(out, gauss(geom.RectCentered(at, half/2+1, half), 0, half/4))
		}
		return out
	}
	extents := [][2]float64{{30, 30}, {110, 45}}

	got := smoothPins{Qualify: map[string]string{}, Evaluate: map[string]goldenPin{}}
	for i, iss := range issuers {
		for j, obj := range objects(iss.Support().Center()) {
			for _, e := range extents {
				p := ObjectQualification(iss, obj, e[0], e[1], ObjectEvalConfig{}, nil)
				got.Qualify[fmt.Sprintf("issuer=%d/object=%d/w=%g/h=%g", i, j, e[0], e[1])] = fmt.Sprintf("%016x", math.Float64bits(p))
			}
		}
	}

	eng := testWorld(t, 400, 300, 4)
	issuer, err := uncertain.NewObject(-1, issuers[0], uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	for _, qp := range []float64{0, 0.3} {
		resp, err := eng.Evaluate(context.Background(), Request{Kind: KindUncertain, Issuer: issuer, W: 110, H: 110, Threshold: qp, Seed: 1234})
		if err != nil {
			t.Fatal(err)
		}
		got.Evaluate[fmt.Sprintf("uncertain/qp=%g", qp)] = pinOf(resp.Result)
	}

	path := filepath.Join("testdata", "golden_smooth_issuer.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d + %d pins to %s", len(got.Qualify), len(got.Evaluate), path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want smoothPins
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("smooth-issuer pins moved:\n got %+v\nwant %+v", got, want)
	}
}

// smoothPins is the recorded table: qualification probabilities as
// float64 bits in hex, and full evaluations.
type smoothPins struct {
	Qualify  map[string]string    `json:"qualify"`
	Evaluate map[string]goldenPin `json:"evaluate"`
}
