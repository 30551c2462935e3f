// Benchmarks regenerating the paper's evaluation (one per figure of §6
// of the paper named in PAPER.md). Figures sweep a parameter; each
// benchmark pins the paper's highlighted operating point and measures a
// single query evaluation, so relative times across benchmarks carry
// the figure's message (e.g. Fig8Basic vs Fig8Enhanced).
//
// The full sweep data is produced by cmd/ildq-bench.
package repro_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro"
)

// benchWorld lazily builds paper-scale datasets (62K points, 53K
// uncertain objects) once for all benchmarks.
type benchWorld struct {
	once    sync.Once
	engine  *repro.Engine // uniform-pdf objects
	gauss   *repro.Engine // gaussian-pdf objects
	points  []repro.PointObject
	issuers []*repro.Object // uniform issuers, u=250
	gissuer []*repro.Object // gaussian issuers, u=250
	err     error
}

var world benchWorld

func (w *benchWorld) init(b *testing.B) {
	b.Helper()
	w.once.Do(func() {
		pts := repro.GeneratePoints(repro.CaliforniaConfig())
		w.points = repro.BuildPointObjects(pts)
		rects := repro.GenerateRects(repro.LongBeachConfig())

		uniObjs, err := repro.BuildUncertainObjects(rects, repro.PDFUniform, nil)
		if err != nil {
			w.err = err
			return
		}
		w.engine, err = repro.NewEngine(w.points, uniObjs, repro.EngineOptions{})
		if err != nil {
			w.err = err
			return
		}
		gaussObjs, err := repro.BuildUncertainObjects(rects, repro.PDFGaussian, nil)
		if err != nil {
			w.err = err
			return
		}
		w.gauss, err = repro.NewEngine(w.points, gaussObjs, repro.EngineOptions{})
		if err != nil {
			w.err = err
			return
		}

		rng := rand.New(rand.NewSource(31))
		for i := 0; i < 64; i++ {
			c := repro.Pt(rng.Float64()*repro.DataExtent, rng.Float64()*repro.DataExtent)
			up, err := repro.NewUniformPDF(repro.RectCentered(c, 250, 250))
			if err != nil {
				w.err = err
				return
			}
			iss, err := repro.NewIssuer(up)
			if err != nil {
				w.err = err
				return
			}
			w.issuers = append(w.issuers, iss)
			gp, err := repro.NewGaussianPDF(repro.RectCentered(c, 250, 250), 0, 0)
			if err != nil {
				w.err = err
				return
			}
			giss, err := repro.NewIssuer(gp)
			if err != nil {
				w.err = err
				return
			}
			w.gissuer = append(w.gissuer, giss)
		}
	})
	if w.err != nil {
		b.Fatal(w.err)
	}
}

// runUncertain benchmarks one C-IUQ/IUQ configuration.
func runUncertain(b *testing.B, engine func() *repro.Engine, issuers func() []*repro.Object, w, qp float64, opts repro.EvalOptions) {
	world.init(b)
	e := engine()
	iss := issuers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(context.Background(), repro.Request{
			Kind: repro.KindUncertain, Issuer: iss[i%len(iss)], W: w, H: w, Threshold: qp, Options: opts,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// runPoints benchmarks one C-IPQ/IPQ configuration.
func runPoints(b *testing.B, engine func() *repro.Engine, issuers func() []*repro.Object, w, qp float64, opts repro.EvalOptions) {
	world.init(b)
	e := engine()
	iss := issuers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Evaluate(context.Background(), repro.Request{
			Kind: repro.KindPoints, Issuer: iss[i%len(iss)], W: w, H: w, Threshold: qp, Options: opts,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func uniEngine() *repro.Engine      { return world.engine }
func gaussEngine() *repro.Engine    { return world.gauss }
func uniIssuers() []*repro.Object   { return world.issuers }
func gaussIssuers() []*repro.Object { return world.gissuer }

// --- Figure 8: Basic vs Enhanced (IUQ), u=250, w=500 ---

func BenchmarkFig8BasicIUQ(b *testing.B) {
	runUncertain(b, uniEngine, uniIssuers, 500, 0, repro.EvalOptions{
		Method:       repro.MethodBasic,
		BasicSamples: 400,
	})
}

func BenchmarkFig8EnhancedIUQ(b *testing.B) {
	runUncertain(b, uniEngine, uniIssuers, 500, 0, repro.EvalOptions{})
}

// --- Figure 9: IPQ, T vs u and w (operating points w=500/1000/1500) ---

func BenchmarkFig9IPQ_W500(b *testing.B) {
	runPoints(b, uniEngine, uniIssuers, 500, 0, repro.EvalOptions{})
}

func BenchmarkFig9IPQ_W1000(b *testing.B) {
	runPoints(b, uniEngine, uniIssuers, 1000, 0, repro.EvalOptions{})
}

func BenchmarkFig9IPQ_W1500(b *testing.B) {
	runPoints(b, uniEngine, uniIssuers, 1500, 0, repro.EvalOptions{})
}

// --- Figure 10: IUQ, T vs u and w ---

func BenchmarkFig10IUQ_W500(b *testing.B) {
	runUncertain(b, uniEngine, uniIssuers, 500, 0, repro.EvalOptions{})
}

func BenchmarkFig10IUQ_W1000(b *testing.B) {
	runUncertain(b, uniEngine, uniIssuers, 1000, 0, repro.EvalOptions{})
}

func BenchmarkFig10IUQ_W1500(b *testing.B) {
	runUncertain(b, uniEngine, uniIssuers, 1500, 0, repro.EvalOptions{})
}

// --- Figure 11: C-IPQ at Qp=0.6, Minkowski vs p-expanded query ---

func BenchmarkFig11CIPQMinkowski(b *testing.B) {
	runPoints(b, uniEngine, uniIssuers, 500, 0.6, repro.EvalOptions{DisablePExpansion: true})
}

func BenchmarkFig11CIPQPExpanded(b *testing.B) {
	runPoints(b, uniEngine, uniIssuers, 500, 0.6, repro.EvalOptions{})
}

// --- Figure 12: C-IUQ at Qp=0.6, R-tree+Minkowski vs PTI+p-expanded ---

func BenchmarkFig12CIUQMinkowskiRTree(b *testing.B) {
	runUncertain(b, uniEngine, uniIssuers, 500, 0.6, repro.EvalOptions{
		DisablePExpansion:   true,
		DisableIndexPruning: true,
		Strategies: repro.StrategySet{
			DisableStrategy1: true,
			DisableStrategy2: true,
			DisableStrategy3: true,
		},
	})
}

func BenchmarkFig12CIUQPExpandedPTI(b *testing.B) {
	runUncertain(b, uniEngine, uniIssuers, 500, 0.6, repro.EvalOptions{})
}

// --- Figure 13: C-IPQ, Gaussian pdfs, Monte-Carlo refinement ---

func BenchmarkFig13GaussianMinkowski(b *testing.B) {
	runPoints(b, gaussEngine, gaussIssuers, 500, 0.6, repro.EvalOptions{
		DisablePExpansion: true,
		PointMCSamples:    200,
	})
}

func BenchmarkFig13GaussianPExpanded(b *testing.B) {
	runPoints(b, gaussEngine, gaussIssuers, 500, 0.6, repro.EvalOptions{
		PointMCSamples: 200,
	})
}

// --- Ablations ---

// Object-level pruning strategies on vs off (index pruning fixed on).
func BenchmarkAblationStrategiesAll(b *testing.B) {
	runUncertain(b, uniEngine, uniIssuers, 500, 0.6, repro.EvalOptions{})
}

func BenchmarkAblationStrategiesNone(b *testing.B) {
	runUncertain(b, uniEngine, uniIssuers, 500, 0.6, repro.EvalOptions{
		Strategies: repro.StrategySet{
			DisableStrategy1: true,
			DisableStrategy2: true,
			DisableStrategy3: true,
		},
	})
}

// Duality closed form vs forced Monte-Carlo refinement (u=250, w=500).
func BenchmarkAblationDualityClosedForm(b *testing.B) {
	runUncertain(b, uniEngine, uniIssuers, 500, 0, repro.EvalOptions{})
}

func BenchmarkAblationDualityMonteCarlo(b *testing.B) {
	runUncertain(b, uniEngine, uniIssuers, 500, 0, repro.EvalOptions{
		Object: repro.ObjectEvalConfig{ForceMonteCarlo: true, MCSamples: 256},
	})
}

// Gaussian-object quadrature path (uniform issuer, Gaussian objects).
func BenchmarkAblationGaussianObjects(b *testing.B) {
	runUncertain(b, gaussEngine, uniIssuers, 500, 0, repro.EvalOptions{})
}

// Nearest-neighbor extension at paper-default issuer size, through
// the engine's point index.
func BenchmarkNNExtension(b *testing.B) {
	world.init(b)
	issPDF, err := repro.NewUniformPDF(repro.RectCentered(repro.Pt(5000, 5000), 250, 250))
	if err != nil {
		b.Fatal(err)
	}
	issuer, err := repro.NewIssuer(issPDF)
	if err != nil {
		b.Fatal(err)
	}
	req := repro.RequestNN(issuer, 1)
	req.NNSamples = 500
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed = int64(i)
		if _, err := world.engine.Evaluate(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// Refinement under forced Monte-Carlo: every candidate sampled.
func BenchmarkRefinementForcedMC(b *testing.B) {
	runUncertain(b, uniEngine, uniIssuers, 1000, 0, repro.EvalOptions{
		Object: repro.ObjectEvalConfig{ForceMonteCarlo: true, MCSamples: 512},
	})
}

// BenchmarkInsertPoints times building the point index by dynamic
// insertion, one single-update batch per point, which is what
// exercises node splits (bulk loading uses STR packing and never
// splits).
func BenchmarkInsertPoints(b *testing.B) {
	pts := repro.GeneratePoints(repro.PointConfig{N: 5000, Clusters: 10, ClusterSigma: 300, Seed: 77})
	points := repro.BuildPointObjects(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine, err := repro.NewEngine(nil, nil, repro.EngineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if rep := engine.ApplyUpdates([]repro.Update{{Op: repro.OpUpsertPoint, Point: p}}); len(rep.Errors) > 0 {
				b.Fatal(rep.Errors[0].Err)
			}
		}
	}
}
