package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/pdf"
)

// SensitivityRow is one sample-count operating point of the
// Monte-Carlo sensitivity analysis.
type SensitivityRow struct {
	Samples    int
	MeanAbsErr float64 // mean |MC - exact| over candidate probabilities
	MaxAbsErr  float64
	TimePerOp  time.Duration // mean time per refinement
}

// SensitivityResult reproduces the paper's §6.2 sensitivity analysis:
// how many Monte-Carlo samples are needed before qualification
// probabilities stabilize ("we need at least 200 samples for
// evaluating a C-IPQ, and 250 samples for C-IUQ"). Ground truth comes
// from the closed-form/quadrature evaluators, which the paper did not
// have for Gaussian pdfs — this repository's exact paths make the
// error measurable directly.
type SensitivityResult struct {
	Kind string // "C-IPQ" or "C-IUQ"
	Rows []SensitivityRow
}

// Render writes the analysis as an aligned table.
func (r SensitivityResult) Render(w io.Writer) {
	fmt.Fprintf(w, "== sensitivity (%s, Gaussian pdfs): Monte-Carlo samples vs error ==\n", r.Kind)
	fmt.Fprintf(w, "%10s %14s %14s %14s\n", "samples", "mean |err|", "max |err|", "time/refine")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%10d %14.5f %14.5f %14s\n",
			row.Samples, row.MeanAbsErr, row.MaxAbsErr, row.TimePerOp)
	}
	fmt.Fprintln(w)
}

// sensitivityScenario is one random configuration: its exact
// probability and a Monte-Carlo estimator of it at n samples.
type sensitivityScenario struct {
	exact    float64
	estimate func(n int) float64
}

// sensitivity draws trials scenarios with informative (non-zero) exact
// probabilities — a Gaussian issuer at the paper's default geometry and
// a target somewhere inside its Minkowski sum, turned into a scenario by
// gen — then measures every sample count's error over all of them.
func sensitivity(kind string, rng *rand.Rand, sampleCounts []int, trials int,
	gen func(iss pdf.PDF, target geom.Point) (sensitivityScenario, error)) (SensitivityResult, error) {
	p := DefaultParams()
	scenarios := make([]sensitivityScenario, 0, trials)
	for len(scenarios) < trials {
		c := geom.Pt(rng.Float64()*dataset.Extent, rng.Float64()*dataset.Extent)
		iss, err := pdf.NewTruncGaussian(geom.RectCentered(c, p.U, p.U), 0, 0)
		if err != nil {
			return SensitivityResult{}, err
		}
		target := geom.Pt(
			c.X+(rng.Float64()*2-1)*(p.U+p.W),
			c.Y+(rng.Float64()*2-1)*(p.U+p.W),
		)
		sc, err := gen(iss, target)
		if err != nil {
			return SensitivityResult{}, err
		}
		if sc.exact != 0 {
			scenarios = append(scenarios, sc)
		}
	}

	res := SensitivityResult{Kind: kind}
	for _, n := range sampleCounts {
		var sumErr, maxErr float64
		start := time.Now()
		for _, sc := range scenarios {
			e := math.Abs(sc.estimate(n) - sc.exact)
			sumErr += e
			maxErr = math.Max(maxErr, e)
		}
		res.Rows = append(res.Rows, SensitivityRow{
			Samples:    n,
			MeanAbsErr: sumErr / float64(len(scenarios)),
			MaxAbsErr:  maxErr,
			TimePerOp:  time.Since(start) / time.Duration(len(scenarios)),
		})
	}
	return res, nil
}

// SensitivityIPQ measures point-object refinement error versus sample
// count under a Gaussian issuer, over trials random configurations at
// the paper's default geometry.
func SensitivityIPQ(cfg Config, sampleCounts []int, trials int) (SensitivityResult, error) {
	if len(sampleCounts) == 0 {
		sampleCounts = []int{25, 50, 100, 200, 400, 800}
	}
	if trials <= 0 {
		trials = 200
	}
	rng := newRng(cfg.withDefaults().Seed + 300)
	w := DefaultParams().W
	return sensitivity("C-IPQ", rng, sampleCounts, trials, func(iss pdf.PDF, s geom.Point) (sensitivityScenario, error) {
		return sensitivityScenario{
			exact:    core.PointQualification(iss, s, w, w),
			estimate: func(n int) float64 { return core.PointQualificationBasic(iss, s, w, w, n, rng) },
		}, nil
	})
}

// SensitivityIUQ is the uncertain-object analogue (paper: 250 samples
// for C-IUQ), comparing Monte-Carlo refinement against the quadrature
// evaluator under Gaussian issuer and object pdfs.
func SensitivityIUQ(cfg Config, sampleCounts []int, trials int) (SensitivityResult, error) {
	if len(sampleCounts) == 0 {
		sampleCounts = []int{25, 50, 100, 250, 500, 1000}
	}
	if trials <= 0 {
		trials = 100
	}
	rng := newRng(cfg.withDefaults().Seed + 301)
	w := DefaultParams().W
	return sensitivity("C-IUQ", rng, sampleCounts, trials, func(iss pdf.PDF, oc geom.Point) (sensitivityScenario, error) {
		obj, err := pdf.NewTruncGaussian(geom.RectCentered(oc, 20+rng.Float64()*100, 20+rng.Float64()*100), 0, 0)
		if err != nil {
			return sensitivityScenario{}, err
		}
		return sensitivityScenario{
			exact: core.ObjectQualification(iss, obj, w, w, core.ObjectEvalConfig{}, nil),
			estimate: func(n int) float64 {
				return core.ObjectQualification(iss, obj, w, w, core.ObjectEvalConfig{ForceMonteCarlo: true, MCSamples: n}, rng)
			},
		}, nil
	})
}
