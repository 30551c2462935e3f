package bench

import (
	"fmt"

	"repro/internal/core"
)

// USweep returns the uncertainty-region sizes of Figures 8–10
// (0, 100, ..., 1000).
func USweep() []float64 {
	out := make([]float64, 11)
	for i := range out {
		out[i] = float64(i) * 100
	}
	return out
}

// QpSweep returns the probability thresholds of Figures 11–13
// (0, 0.1, ..., 1).
func QpSweep() []float64 {
	out := make([]float64, 11)
	for i := range out {
		out[i] = float64(i) / 10
	}
	return out
}

// noThresholdMachinery is the paper's baseline: plain Minkowski-sum
// filtering, no index-level bound pruning, none of the §5.2 strategies.
var noThresholdMachinery = core.EvalOptions{
	DisablePExpansion:   true,
	DisableIndexPruning: true,
	Strategies:          core.StrategySet{DisableStrategy1: true, DisableStrategy2: true, DisableStrategy3: true},
}

// Fig8 reproduces Figure 8: the basic IUQ evaluator (Equation 4 by
// issuer sampling) against the enhanced evaluator (Lemma 4), response
// time versus issuer uncertainty size u at the default range size.
//
// basicSamples is the issuer sample count of the basic method
// (0 = 400); the paper notes a large count is needed for accuracy even
// with uniform pdfs (§3.3).
func Fig8(env *Env, basicSamples int) (Figure, error) {
	if basicSamples <= 0 {
		basicSamples = 400
	}
	fig := Figure{ID: "fig8", Title: "Basic vs Enhanced (IUQ), w=500", XLabel: "u"}
	err := env.sweep(&fig, env.IssuerStream(fig.ID), core.KindUncertain, USweep(), overU(DefaultParams().W),
		variant{name: "Enhanced Method"},
		variant{
			name: fmt.Sprintf("Basic Method (%d samples)", basicSamples),
			opts: core.EvalOptions{Method: core.MethodBasic, BasicSamples: basicSamples},
			seed: env.cfg.Seed + 100,
		})
	return fig, err
}

// Fig9 reproduces Figure 9: IPQ response time versus u for range sizes
// w in {500, 1000, 1500}.
func Fig9(env *Env) (Figure, error) {
	return sweepURanges(env, core.KindPoints, "fig9", "T vs u (IPQ)")
}

// Fig10 reproduces Figure 10: IUQ response time versus u for the same
// range sizes.
func Fig10(env *Env) (Figure, error) {
	return sweepURanges(env, core.KindUncertain, "fig10", "T vs u (IUQ)")
}

func sweepURanges(env *Env, kind core.Kind, id, title string) (Figure, error) {
	fig := Figure{ID: id, Title: title, XLabel: "u"}
	rng := env.IssuerStream(id)
	for _, w := range []float64{500, 1000, 1500} {
		if err := env.sweep(&fig, rng, kind, USweep(), overU(w), variant{name: fmt.Sprintf("Range Size=%g", w)}); err != nil {
			return Figure{}, err
		}
	}
	return fig, nil
}

// Fig11 reproduces Figure 11: C-IPQ response time versus Qp, comparing
// the plain Minkowski-sum filter against the p-expanded query.
func Fig11(env *Env) (Figure, error) {
	return sweepQpPoints(env, "fig11", "T vs Qp (C-IPQ)", 0)
}

// Fig12 reproduces Figure 12: C-IUQ response time versus Qp, comparing
// R-tree+Minkowski (threshold machinery disabled) against
// PTI+p-expanded-query (index-level bound pruning plus the §5.2
// strategies).
func Fig12(env *Env) (Figure, error) {
	fig := Figure{ID: "fig12", Title: "T vs Qp (C-IUQ)", XLabel: "Qp"}
	err := env.sweep(&fig, env.IssuerStream(fig.ID), core.KindUncertain, QpSweep(), overQp,
		variant{name: "p-Expanded-Query (PTI)"},
		variant{name: "Minkowski Sum (R-tree)", opts: noThresholdMachinery})
	return fig, err
}

// Fig13 reproduces Figure 13: C-IPQ under Gaussian pdfs, where
// refinement uses Monte-Carlo estimation (the paper's 200-sample
// regime) and filtering still benefits from the p-expanded query.
// The environment should be built with Kind=PDFGaussian so issuers are
// Gaussian.
func Fig13(env *Env, mcSamples int) (Figure, error) {
	if mcSamples <= 0 {
		mcSamples = 200 // paper's sensitivity-analysis result for C-IPQ
	}
	return sweepQpPoints(env, "fig13", "T vs Qp (C-IPQ, Gaussian, Monte-Carlo)", mcSamples)
}

func sweepQpPoints(env *Env, id, title string, mcSamples int) (Figure, error) {
	fig := Figure{ID: id, Title: title, XLabel: "Qp"}
	err := env.sweep(&fig, env.IssuerStream(id), core.KindPoints, QpSweep(), overQp,
		variant{name: "p-Expanded-Query", opts: core.EvalOptions{PointMCSamples: mcSamples}, seed: env.cfg.Seed + 200},
		variant{name: "Minkowski Sum", opts: core.EvalOptions{DisablePExpansion: true, PointMCSamples: mcSamples}, seed: env.cfg.Seed + 201})
	return fig, err
}
