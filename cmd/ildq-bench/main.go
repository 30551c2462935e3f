// Command ildq-bench redraws the paper's evaluation figures
// (Figures 8–13) and the studies that go with them (pruning-strategy
// and U-catalog ablations, buffer-pool I/O, Monte-Carlo sample-count
// sensitivity), printing each as an aligned text table of response
// time (and optionally I/O and candidate metrics) per sweep point. The
// experiments are the rows of bench.Experiments; this command parses
// flags and runs the selected rows in table order.
//
// Usage:
//
//	ildq-bench -exp all                        # every experiment, paper scale
//	ildq-bench -exp fig11,fig12 -queries 100   # selected figures, fewer queries
//	ildq-bench -exp fig8 -points 10000 -rects 8000 -io
//
// Paper scale (62K points, 53K rectangles, 500 queries per sweep
// point) takes minutes for the sampling-heavy experiments; the -points,
// -rects and -queries flags trade precision for speed. At a fixed -seed
// every column but time(ms) is reproducible, and an experiment prints
// the same numbers whichever others are selected beside it.
//
// ildq-bench does not measure the serving system: latency and
// throughput of the router + shard fleet come from the benchmark/
// module (BENCHMARK.json, benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	var s bench.Session
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all' (ids: "+strings.Join(bench.IDs(), ", ")+")")
	flag.IntVar(&s.Points, "points", 0, "point-object count (0 = paper's 62000)")
	flag.IntVar(&s.Rects, "rects", 0, "uncertain-object count (0 = paper's 53000)")
	flag.IntVar(&s.Queries, "queries", 0, "queries per sweep point (0 = paper's 500)")
	flag.Int64Var(&s.Seed, "seed", 1, "dataset and workload seed")
	flag.BoolVar(&s.ShowIO, "io", false, "include node-access and candidate columns")
	flag.IntVar(&s.BasicSamples, "basic-samples", 400, "issuer samples for the basic method (fig8)")
	flag.IntVar(&s.MCSamples, "mc-samples", 200, "Monte-Carlo samples per refinement (fig13)")
	flag.Parse()

	selected, err := bench.Select(*exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ildq-bench: %v\n", err)
		os.Exit(2)
	}
	for _, e := range selected {
		if err := e.Run(&s, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ildq-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}
