package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/uncertain"
)

// AblationStrategies measures C-IUQ cost with each §5.2 pruning
// strategy disabled in turn (and everything disabled), versus the full
// stack, across the Qp sweep. It quantifies each strategy's individual
// contribution — the design-choice ablation DESIGN.md lists.
func AblationStrategies(env *Env) (Figure, error) {
	p := DefaultParams()
	fig := Figure{ID: "ablation-strategies", Title: "C-IUQ pruning strategy ablation", XLabel: "Qp"}
	variants := []struct {
		name string
		opts core.EvalOptions
	}{
		{"all strategies", core.EvalOptions{}},
		{"no strategy 1", core.EvalOptions{Strategies: core.StrategySet{DisableStrategy1: true}}},
		{"no strategy 2", core.EvalOptions{Strategies: core.StrategySet{DisableStrategy2: true}}},
		{"no strategy 3", core.EvalOptions{Strategies: core.StrategySet{DisableStrategy3: true}}},
		{"no index pruning", core.EvalOptions{DisableIndexPruning: true}},
		{"object strategies only", core.EvalOptions{DisableIndexPruning: true, DisablePExpansion: true}},
		{"nothing", core.EvalOptions{
			DisablePExpansion:   true,
			DisableIndexPruning: true,
			Strategies:          core.StrategySet{DisableStrategy1: true, DisableStrategy2: true, DisableStrategy3: true},
		}},
	}
	series := make([]Series, len(variants))
	for i, v := range variants {
		series[i].Name = v.name
	}
	// One issuer set per sweep point, shared across variants, so the
	// series are comparable point by point.
	for _, qp := range []float64{0.2, 0.4, 0.6, 0.8} {
		issuers, err := env.Issuers(env.cfg.Queries, p.U)
		if err != nil {
			return Figure{}, err
		}
		for i, v := range variants {
			s, err := env.runPoint(overUncertain, issuers, p.W, p.W, qp, v.opts, qp)
			if err != nil {
				return Figure{}, err
			}
			series[i].Samples = append(series[i].Samples, s)
		}
	}
	fig.Series = series
	return fig, nil
}

// AblationCatalogSize measures C-IUQ refinement cost as a function of
// the U-catalog resolution (3, 6, 11 values): more rows mean tighter
// M-bounds and better pruning, at larger index entries (lower
// fan-out) — the trade-off §5.2 discusses ("in our experiments, we
// store six probability values").
func AblationCatalogSize(cfg Config) (Figure, error) {
	cfg = cfg.withDefaults()
	fig := Figure{ID: "ablation-catalog", Title: "C-IUQ vs U-catalog size", XLabel: "Qp"}
	p := DefaultParams()
	for _, n := range []int{2, 5, 10} {
		probs := uncertain.DefaultCatalogProbs(n)[:n] // 0 .. (n-1)/n
		rcfg := dataset.LongBeachConfig()
		rcfg.N = cfg.Rects
		rcfg.Seed = cfg.Seed + 1
		objs, err := dataset.BuildUncertainObjects(dataset.GenerateRects(rcfg), cfg.Kind, probs)
		if err != nil {
			return Figure{}, err
		}
		engine, err := core.NewEngine(nil, objs, core.EngineOptions{CatalogProbs: probs})
		if err != nil {
			return Figure{}, err
		}
		env := &Env{cfg: cfg, Engine: engine, rng: newRng(cfg.Seed + 2)}
		series := Series{Name: fmt.Sprintf("%d catalog values", n)}
		for _, qp := range []float64{0.2, 0.4, 0.6, 0.8} {
			issuers, err := env.Issuers(cfg.Queries, p.U)
			if err != nil {
				return Figure{}, err
			}
			s, err := env.runPoint(overUncertain, issuers, p.W, p.W, qp, core.EvalOptions{}, qp)
			if err != nil {
				return Figure{}, err
			}
			series.Samples = append(series.Samples, s)
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}
