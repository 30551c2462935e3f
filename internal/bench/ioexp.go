package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/index/rtree"
	"repro/internal/storage"
	"repro/internal/uncertain"
)

// IOExperiment runs the C-IUQ workload against a disk-regime PTI:
// nodes serialized into 4 KiB pages behind a CLOCK buffer pool, the
// setting of the paper's experiments (§6.1: 4 KiB R-tree nodes from a
// disk-resident library). For each buffer-pool capacity it reports
// physical page reads per query (in NodeIO) alongside response time,
// at Qp in {0, 0.6}, for the full pruning stack.
//
// The trend to verify: threshold pruning cuts physical I/O hardest
// when the pool is small (every avoided node is a likely disk read),
// and large pools absorb repeated accesses.
func IOExperiment(cfg Config, poolPages []int) (Figure, error) {
	cfg = cfg.withDefaults()
	if len(poolPages) == 0 {
		poolPages = []int{8, 64, 512}
	}
	fig := Figure{
		ID:     "exp-io",
		Title:  "C-IUQ physical reads vs buffer pool (paged PTI, 4 KiB pages)",
		XLabel: "Qp",
	}

	objs, err := uncertainObjects(cfg, uncertain.PaperCatalogProbs())
	if err != nil {
		return Figure{}, err
	}

	for _, pages := range poolPages {
		pool := storage.NewBufferPool(storage.NewMemStore(), pages)
		store := rtree.NewPagedNodeStore(pool, 4*len(uncertain.PaperCatalogProbs()))
		engine, err := core.NewEngine(nil, objs, core.EngineOptions{UncertainNodeStore: store})
		if err != nil {
			return Figure{}, err
		}
		// Every pool size restarts the stream: same issuers per series.
		env := &Env{cfg: cfg, Engine: engine}
		rng := env.IssuerStream(fig.ID)
		series := Series{Name: fmt.Sprintf("pool=%d pages (physical reads)", pages)}
		p := DefaultParams()
		for _, qp := range []float64{0, 0.6} {
			issuers, err := env.Issuers(rng, cfg.Queries, p.U)
			if err != nil {
				return Figure{}, err
			}
			// Cold cache per sweep point so bulk loading and earlier
			// sweep points do not subsidize this one.
			if err := pool.Clear(); err != nil {
				return Figure{}, err
			}
			before := pool.Stats()
			s, err := env.runPoint(core.KindUncertain, issuers, p.W, p.W, qp, core.EvalOptions{}, 0, qp)
			if err != nil {
				return Figure{}, err
			}
			delta := pool.Stats().Sub(before)
			// Replace the logical node-access metric with physical
			// page reads per query for this figure.
			s.NodeIO = float64(delta.PhysicalReads) / float64(len(issuers))
			series.Samples = append(series.Samples, s)
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}
