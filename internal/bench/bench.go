// Package bench is the figure harness: it redraws the evaluation of
// the paper named in PAPER.md (its §6, Figures 8–13) plus the
// pruning-strategy, U-catalog, buffer-pool and sample-count studies
// that go with it, over the synthetic California / Long Beach datasets.
// Experiments is the table of everything it can run; the ildq-bench
// command is a loop over that table.
//
// Each experiment yields a Figure — named series of (x, metrics)
// points — or a SensitivityResult, rendered as aligned text tables.
// Metrics include wall-clock response time (the paper's T), index node
// accesses (hardware-independent I/O cost), candidate counts, and
// refinement counts, so the paper's trends can be verified on any
// machine.
//
// The serving system is not timed here but by the benchmark/ module
// (BENCHMARK.json); sample counts, qualifying-set equality and
// allocation counts are go test assertions in the packages that own
// them.
package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/mcbound"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// Params mirrors the paper's Table 2 defaults.
type Params struct {
	U  float64 // size (half side length) of U0; default 250
	W  float64 // size (half side length) of the range query; default 500
	Qp float64 // probability threshold; default 0
}

// DefaultParams returns the Table 2 baseline.
func DefaultParams() Params { return Params{U: 250, W: 500, Qp: 0} }

// Config sizes an experiment run. The paper uses the full datasets and
// 500 queries per data point; tests scale these down.
type Config struct {
	// Points and Rects are the dataset cardinalities (0 = paper
	// sizes: 62K / 53K).
	Points, Rects int
	// Queries is the number of issuers averaged per data point
	// (0 = 500, as in the paper).
	Queries int
	// Seed drives dataset generation and issuer placement.
	Seed int64
	// Kind is the uncertainty pdf for data objects and issuers
	// (uniform unless the experiment says otherwise).
	Kind dataset.PDFKind
}

func (c Config) withDefaults() Config {
	if c.Points == 0 {
		c.Points = dataset.CaliforniaSize
	}
	if c.Rects == 0 {
		c.Rects = dataset.LongBeachSize
	}
	if c.Queries == 0 {
		c.Queries = 500
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Sample is one measured data point of a series.
type Sample struct {
	X          float64
	TimeMS     float64 // mean response time per query, milliseconds
	NodeIO     float64 // mean index node accesses per query
	Candidates float64 // mean candidates per query
	Refined    float64 // mean exact evaluations per query
	Matches    float64 // mean result-set size per query
}

// Series is one curve of a figure.
type Series struct {
	Name    string
	Samples []Sample
}

// Figure is a reproduced table/figure.
type Figure struct {
	ID     string // e.g. "fig8"
	Title  string
	XLabel string
	Series []Series
}

// Render writes the figure as aligned text. With io=true the node
// access and candidate columns are included.
func (f Figure) Render(w io.Writer, showIO bool) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	for _, s := range f.Series {
		fmt.Fprintf(w, "-- %s --\n%12s %12s", s.Name, f.XLabel, "time(ms)")
		if showIO {
			fmt.Fprintf(w, " %12s %12s %12s %12s", "nodeIO", "candidates", "refined", "matches")
		}
		fmt.Fprintln(w)
		for _, p := range s.Samples {
			fmt.Fprintf(w, "%12.3g %12.4f", p.X, p.TimeMS)
			if showIO {
				fmt.Fprintf(w, " %12.1f %12.1f %12.1f %12.1f", p.NodeIO, p.Candidates, p.Refined, p.Matches)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

// Env is a prepared experiment environment: datasets indexed once,
// reused across sweep points and across the experiments of one run.
type Env struct {
	cfg    Config
	Engine *core.Engine
}

// NewEnv generates datasets per cfg and bulk-loads the engine.
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()

	pcfg := dataset.CaliforniaConfig()
	pcfg.N = cfg.Points
	pcfg.Seed = cfg.Seed
	points := dataset.BuildPointObjects(dataset.GeneratePoints(pcfg))

	objs, err := uncertainObjects(cfg, uncertain.PaperCatalogProbs())
	if err != nil {
		return nil, err
	}

	engine, err := core.NewEngine(points, objs, core.EngineOptions{})
	if err != nil {
		return nil, err
	}
	return &Env{cfg: cfg, Engine: engine}, nil
}

// uncertainObjects generates the Long Beach stand-in at cfg's size and
// pdf kind, with U-catalogs at the given probabilities.
func uncertainObjects(cfg Config, probs []float64) ([]*uncertain.Object, error) {
	rcfg := dataset.LongBeachConfig()
	rcfg.N = cfg.Rects
	rcfg.Seed = cfg.Seed + 1
	return dataset.BuildUncertainObjects(dataset.GenerateRects(rcfg), cfg.Kind, probs)
}

// newRng returns a deterministic source for the given seed.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// IssuerStream returns the issuer-placement stream of the experiment
// with the given id. It depends on (Config.Seed, id) alone, so at a
// fixed seed an experiment queries the same issuers whichever other
// experiments ran before it on this Env.
func (e *Env) IssuerStream(id string) *rand.Rand {
	h := fnv.New32a()
	h.Write([]byte(id))
	return newRng(mcbound.DeriveSeed(e.cfg.Seed, int(h.Sum32())))
}

// Issuers draws n query issuers with half extent u from rng (an
// IssuerStream), centers uniform in the data space (§6.1), built with
// the paper's U-catalog. u = 0 produces a precise issuer (degenerate
// region, uniform point mass).
func (e *Env) Issuers(rng *rand.Rand, n int, u float64) ([]*uncertain.Object, error) {
	out := make([]*uncertain.Object, n)
	for i := range out {
		c := geom.Pt(rng.Float64()*dataset.Extent, rng.Float64()*dataset.Extent)
		region := geom.RectCentered(c, u, u)
		var p pdf.PDF
		var err error
		if e.cfg.Kind == dataset.PDFGaussian && u > 0 {
			p, err = pdf.NewTruncGaussian(region, 0, 0)
		} else {
			p, err = pdf.NewUniform(region)
		}
		if err != nil {
			return nil, err
		}
		out[i], err = uncertain.NewObject(uncertain.ID(-1-i), p, uncertain.PaperCatalogProbs())
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runPoint executes one workload (one sweep x-value) and averages the
// metrics. The query of issuer i samples from seed
// mcbound.DeriveSeed(seed, i).
func (e *Env) runPoint(kind core.Kind, issuers []*uncertain.Object, w, h, qp float64, opts core.EvalOptions, seed int64, x float64) (Sample, error) {
	var agg Sample
	agg.X = x
	for i, iss := range issuers {
		req := core.Request{Kind: kind, Issuer: iss, W: w, H: h, Threshold: qp, Options: opts, Seed: mcbound.DeriveSeed(seed, i)}
		start := time.Now()
		resp, err := e.Engine.Evaluate(context.Background(), req)
		elapsed := time.Since(start)
		if err != nil {
			return Sample{}, err
		}
		res := resp.Result
		agg.TimeMS += float64(elapsed.Nanoseconds()) / 1e6
		agg.NodeIO += float64(res.Cost.NodeAccesses)
		agg.Candidates += float64(res.Cost.Candidates)
		agg.Refined += float64(res.Cost.Refined)
		agg.Matches += float64(len(res.Matches))
	}
	n := float64(len(issuers))
	agg.TimeMS /= n
	agg.NodeIO /= n
	agg.Candidates /= n
	agg.Refined /= n
	agg.Matches /= n
	return agg, nil
}

// variant is one series of a sweep: a name, the options it evaluates
// with, and the seed its Monte-Carlo refinement samples from (see
// runPoint; closed-form variants leave it zero).
type variant struct {
	name string
	opts core.EvalOptions
	seed int64
}

// sweep appends one series per variant to fig. At every x it draws one
// issuer set from rng — shared by the variants, so the series are
// comparable point by point — and runs each variant at the (u, w, Qp)
// that at(x) gives.
func (e *Env) sweep(fig *Figure, rng *rand.Rand, kind core.Kind, xs []float64, at func(x float64) Params, variants ...variant) error {
	series := make([]Series, len(variants))
	for i, v := range variants {
		series[i].Name = v.name
	}
	for _, x := range xs {
		p := at(x)
		issuers, err := e.Issuers(rng, e.cfg.Queries, p.U)
		if err != nil {
			return err
		}
		for i, v := range variants {
			s, err := e.runPoint(kind, issuers, p.W, p.W, p.Qp, v.opts, v.seed, x)
			if err != nil {
				return err
			}
			series[i].Samples = append(series[i].Samples, s)
		}
	}
	fig.Series = append(fig.Series, series...)
	return nil
}

// overU sweeps the issuer size at range size w, Qp = 0; overQp sweeps
// the threshold at the Table 2 sizes.
func overU(w float64) func(float64) Params {
	return func(u float64) Params { return Params{U: u, W: w} }
}

func overQp(qp float64) Params {
	p := DefaultParams()
	p.Qp = qp
	return p
}
