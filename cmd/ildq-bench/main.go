// Command ildq-bench regenerates the paper's evaluation figures
// (Figures 8–13), the repository's ablation studies, and the serving
// throughput experiment, printing each as an aligned text table of
// response time (and optionally I/O and candidate metrics) per sweep
// point.
//
// Usage:
//
//	ildq-bench -exp all                        # every experiment, paper scale
//	ildq-bench -exp fig11,fig12 -queries 100   # selected figures, fewer queries
//	ildq-bench -exp fig8 -points 10000 -rects 8000 -io
//	ildq-bench -exp exp-throughput -workers 1,2,4 -json BENCH.json
//
// Paper scale (62K points, 53K rectangles, 500 queries per sweep
// point) takes minutes for the sampling-heavy experiments; the -points,
// -rects and -queries flags trade precision for speed. With -json the
// collected results are additionally written to the given file as a
// machine-readable report, so successive revisions can be compared.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/dataset"
)

// report is the -json output shape: every figure, throughput curve,
// and adaptive-refinement table the run produced, plus the sizing
// configuration, for perf-trajectory comparison across revisions.
type report struct {
	Points     int                      `json:"points"`
	Rects      int                      `json:"rects"`
	Queries    int                      `json:"queries"`
	Seed       int64                    `json:"seed"`
	Figures    []bench.Figure           `json:"figures,omitempty"`
	Throughput []bench.ThroughputReport `json:"throughput,omitempty"`
	Adaptive   []bench.AdaptiveReport   `json:"adaptive,omitempty"`
	Continuous []bench.ContinuousReport `json:"continuous,omitempty"`
	Mixed      []bench.MixedReport      `json:"mixed,omitempty"`
	NN         []bench.NNReport         `json:"nn,omitempty"`
	Obs        []bench.ObsReport        `json:"obs,omitempty"`
	Durability []bench.DurabilityReport `json:"durability,omitempty"`
}

func main() {
	var (
		expFlag      = flag.String("exp", "all", "comma-separated experiment ids, or 'all' (ids: "+strings.Join(bench.AllFigureIDs(), ", ")+")")
		points       = flag.Int("points", 0, "point-object count (0 = paper's 62000)")
		rects        = flag.Int("rects", 0, "uncertain-object count (0 = paper's 53000)")
		queries      = flag.Int("queries", 0, "queries per sweep point (0 = paper's 500)")
		seed         = flag.Int64("seed", 1, "dataset and workload seed")
		showIO       = flag.Bool("io", false, "include node-access and candidate columns")
		basicSamples = flag.Int("basic-samples", 400, "issuer samples for the basic method (fig8)")
		mcSamples    = flag.Int("mc-samples", 200, "Monte-Carlo samples per refinement (fig13)")
		workersFlag  = flag.String("workers", "1,2,4", "comma-separated worker counts for exp-throughput")
		shards       = flag.Int("shards", 0, "buffer-pool lock shards for exp-throughput's io-bound run (0 = auto)")
		thresholds   = flag.String("threshold", "0.1,0.5,0.9", "comma-separated probability thresholds for exp-adaptive")
		adptSamples  = flag.Int("adaptive-samples", 2048, "Monte-Carlo budget per candidate for exp-adaptive")
		nnSamples    = flag.Int("nn-samples", 2000, "shared-stream samples for exp-nn's candidate-count sweep")
		standing     = flag.Int("standing", 64, "standing queries for exp-continuous")
		updBatches   = flag.Int("update-batches", 40, "update batches for exp-continuous and exp-mixed")
		updBatchSize = flag.Int("batch-size", 32, "updates per batch for exp-continuous and exp-mixed")
		readers      = flag.Int("readers", 2, "reader goroutines for exp-mixed")
		jsonPath     = flag.String("json", "", "also write results to this file as JSON")
		baseline     = flag.String("baseline", "", "gate this run against a baseline -json report; exit 3 on regression")
		regressTol   = flag.Float64("regress", 0.20, "fractional regression tolerance for -baseline")
	)
	flag.Parse()

	want := map[string]bool{}
	if *expFlag == "all" {
		for _, id := range bench.AllFigureIDs() {
			want[id] = true
		}
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	known := map[string]bool{}
	for _, id := range bench.AllFigureIDs() {
		known[id] = true
	}
	for id := range want {
		if !known[id] {
			fmt.Fprintf(os.Stderr, "ildq-bench: unknown experiment %q (known: %s)\n",
				id, strings.Join(bench.AllFigureIDs(), ", "))
			os.Exit(2)
		}
	}
	workerCounts, err := parseWorkers(*workersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ildq-bench: %v\n", err)
		os.Exit(2)
	}

	cfg := bench.Config{Points: *points, Rects: *rects, Queries: *queries, Seed: *seed}
	rep := report{Points: *points, Rects: *rects, Queries: *queries, Seed: *seed}

	// Environments are shared across experiments with the same pdf
	// kind and built lazily.
	var uniEnv, gaussEnv *bench.Env
	getUni := func() *bench.Env {
		if uniEnv == nil {
			uniEnv = mustEnv(cfg)
		}
		return uniEnv
	}
	getGauss := func() *bench.Env {
		if gaussEnv == nil {
			g := cfg
			g.Kind = dataset.PDFGaussian
			gaussEnv = mustEnv(g)
		}
		return gaussEnv
	}

	// The sensitivity analysis has its own table shape; handle it
	// before the figure runners.
	if want["exp-sensitivity"] {
		ipq, err := bench.SensitivityIPQ(cfg, nil, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: sensitivity: %v\n", err)
			os.Exit(1)
		}
		ipq.Render(os.Stdout)
		iuq, err := bench.SensitivityIUQ(cfg, nil, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: sensitivity: %v\n", err)
			os.Exit(1)
		}
		iuq.Render(os.Stdout)
	}

	// The throughput experiment produces worker-scaling curves instead
	// of a sweep figure: one CPU-bound over an in-memory environment,
	// one I/O-bound over a paged, latency-simulated store. It gets its
	// own environment so drawing its issuers cannot shift the workloads
	// of figures sharing the uniform env in an "-exp all" run (the
	// -json output is meant to be comparable across revisions at a
	// fixed -seed).
	if want["exp-throughput"] {
		cpu, err := bench.Throughput(mustEnv(cfg), 0, workerCounts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: throughput: %v\n", err)
			os.Exit(1)
		}
		cpu.Render(os.Stdout)
		iob, err := bench.ThroughputIO(cfg, 0, workerCounts, 0, 0, *shards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: throughput: %v\n", err)
			os.Exit(1)
		}
		iob.Render(os.Stdout)
		rep.Throughput = append(rep.Throughput, cpu, iob)
	}

	// Adaptive refinement has its own table shape (full vs early-stop
	// sampling cost per threshold); it shares the uniform environment.
	if want["exp-adaptive"] {
		qps, err := parseThresholds(*thresholds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: %v\n", err)
			os.Exit(2)
		}
		adpt, err := bench.AdaptiveRefinement(getUni(), 0, qps, *adptSamples)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: adaptive: %v\n", err)
			os.Exit(1)
		}
		adpt.Render(os.Stdout)
		rep.Adaptive = append(rep.Adaptive, adpt)
	}

	// Continuous monitoring mutates its engine (the update trace), so
	// it always gets a private environment.
	if want["exp-continuous"] {
		workers := workerCounts[len(workerCounts)-1]
		cont, err := bench.Continuous(mustEnv(cfg), *standing, *updBatches, *updBatchSize, workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: continuous: %v\n", err)
			os.Exit(1)
		}
		cont.Render(os.Stdout)
		rep.Continuous = append(rep.Continuous, cont)
	}

	// The mixed read/write interference experiment also mutates its
	// engine, so it too runs over a private environment.
	if want["exp-mixed"] {
		mixed, err := bench.Mixed(mustEnv(cfg), *readers, *updBatches, *updBatchSize)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: mixed: %v\n", err)
			os.Exit(1)
		}
		mixed.Render(os.Stdout)
		rep.Mixed = append(rep.Mixed, mixed)
	}

	// The NN refinement experiment queries only the point database, so
	// it gets a private environment with a token rectangle set instead
	// of rebuilding the full uncertain-object dataset. It runs after
	// the other timed experiments so adding it to a profile leaves
	// their measurement sequence — and so their baseline comparability
	// — unchanged.
	if want["exp-nn"] {
		qps, err := parseThresholds(*thresholds)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: %v\n", err)
			os.Exit(2)
		}
		ncfg := cfg
		ncfg.Rects = 64
		nnRep, err := bench.NNRefinement(mustEnv(ncfg), 0, qps, *nnSamples, 0, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: nn: %v\n", err)
			os.Exit(1)
		}
		nnRep.Render(os.Stdout)
		rep.NN = append(rep.NN, nnRep)
	}

	// The observability-overhead A/B times identical evaluations with
	// and without a per-request trace; like exp-nn it runs last over a
	// private environment so earlier experiments keep their baseline
	// comparability.
	if want["exp-obs"] {
		obsRep, err := bench.Obs(mustEnv(cfg), 0, 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: obs: %v\n", err)
			os.Exit(1)
		}
		obsRep.Render(os.Stdout)
		rep.Obs = append(rep.Obs, obsRep)
	}

	// The durability experiment builds its own durable engines in temp
	// directories (one per fsync policy) and never touches the shared
	// environments; it runs after the in-memory experiments so their
	// measurement sequence keeps its baseline comparability.
	if want["exp-durability"] {
		durRep, err := bench.Durability(cfg, *updBatches, *updBatchSize)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: durability: %v\n", err)
			os.Exit(1)
		}
		durRep.Render(os.Stdout)
		rep.Durability = append(rep.Durability, durRep)
	}

	runners := []struct {
		id  string
		run func() (bench.Figure, error)
	}{
		{"fig8", func() (bench.Figure, error) { return bench.Fig8(getUni(), *basicSamples) }},
		{"fig9", func() (bench.Figure, error) { return bench.Fig9(getUni()) }},
		{"fig10", func() (bench.Figure, error) { return bench.Fig10(getUni()) }},
		{"fig11", func() (bench.Figure, error) { return bench.Fig11(getUni()) }},
		{"fig12", func() (bench.Figure, error) { return bench.Fig12(getUni()) }},
		{"fig13", func() (bench.Figure, error) { return bench.Fig13(getGauss(), *mcSamples) }},
		{"ablation-strategies", func() (bench.Figure, error) { return bench.AblationStrategies(getUni()) }},
		{"ablation-catalog", func() (bench.Figure, error) { return bench.AblationCatalogSize(cfg) }},
		{"exp-io", func() (bench.Figure, error) { return bench.IOExperiment(cfg, nil) }},
	}
	for _, r := range runners {
		if !want[r.id] {
			continue
		}
		fig, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: %s: %v\n", r.id, err)
			os.Exit(1)
		}
		fig.Render(os.Stdout, *showIO)
		rep.Figures = append(rep.Figures, fig)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: encoding json: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ildq-bench: wrote %s\n", *jsonPath)
	}

	if *baseline != "" {
		violations, err := runGate(rep, *baseline, *regressTol)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: gate: %v\n", err)
			os.Exit(1)
		}
		if len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "ildq-bench: %d metric(s) regressed more than %.0f%% vs %s:\n",
				len(violations), *regressTol*100, *baseline)
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "ildq-bench: gate vs %s passed (tolerance %.0f%%)\n", *baseline, *regressTol*100)
	}
}

func parseThresholds(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 || v > 1 {
			return nil, fmt.Errorf("bad -threshold value %q (want probabilities in (0, 1])", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -threshold list")
	}
	return out, nil
}

func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers value %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -workers list")
	}
	return out, nil
}

func mustEnv(cfg bench.Config) *bench.Env {
	env, err := bench.NewEnv(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ildq-bench: building environment: %v\n", err)
		os.Exit(1)
	}
	return env
}
