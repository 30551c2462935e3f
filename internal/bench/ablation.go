package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/uncertain"
)

// ablationQps is the threshold sweep of the two ablations.
var ablationQps = []float64{0.2, 0.4, 0.6, 0.8}

// AblationStrategies measures C-IUQ cost with each §5.2 pruning
// strategy disabled in turn (and everything disabled), versus the full
// stack, across the Qp sweep. It quantifies each strategy's individual
// contribution to the gap Figure 12 shows.
func AblationStrategies(env *Env) (Figure, error) {
	fig := Figure{ID: "ablation-strategies", Title: "C-IUQ pruning strategy ablation", XLabel: "Qp"}
	err := env.sweep(&fig, env.IssuerStream(fig.ID), core.KindUncertain, ablationQps, overQp,
		variant{name: "all strategies"},
		variant{name: "no strategy 1", opts: core.EvalOptions{Strategies: core.StrategySet{DisableStrategy1: true}}},
		variant{name: "no strategy 2", opts: core.EvalOptions{Strategies: core.StrategySet{DisableStrategy2: true}}},
		variant{name: "no strategy 3", opts: core.EvalOptions{Strategies: core.StrategySet{DisableStrategy3: true}}},
		variant{name: "no index pruning", opts: core.EvalOptions{DisableIndexPruning: true}},
		variant{name: "object strategies only", opts: core.EvalOptions{DisableIndexPruning: true, DisablePExpansion: true}},
		variant{name: "nothing", opts: noThresholdMachinery})
	return fig, err
}

// AblationCatalogSize measures C-IUQ refinement cost as a function of
// the U-catalog resolution (3, 6, 11 values): more rows mean tighter
// M-bounds and better pruning, at larger index entries (lower
// fan-out) — the trade-off §5.2 discusses ("in our experiments, we
// store six probability values").
func AblationCatalogSize(cfg Config) (Figure, error) {
	cfg = cfg.withDefaults()
	fig := Figure{ID: "ablation-catalog", Title: "C-IUQ vs U-catalog size", XLabel: "Qp"}
	for _, n := range []int{2, 5, 10} {
		probs := uncertain.DefaultCatalogProbs(n)[:n] // 0 .. (n-1)/n
		objs, err := uncertainObjects(cfg, probs)
		if err != nil {
			return Figure{}, err
		}
		engine, err := core.NewEngine(nil, objs, core.EngineOptions{CatalogProbs: probs})
		if err != nil {
			return Figure{}, err
		}
		// Every catalog size restarts the stream: same issuers per series.
		env := &Env{cfg: cfg, Engine: engine}
		err = env.sweep(&fig, env.IssuerStream(fig.ID), core.KindUncertain, ablationQps, overQp,
			variant{name: fmt.Sprintf("%d catalog values", n)})
		if err != nil {
			return Figure{}, err
		}
	}
	return fig, nil
}
