// Command ildq-gen generates the synthetic experiment datasets and
// writes them in the repository's binary .ilq format.
//
// Usage:
//
//	ildq-gen -kind points -out california.ilq            # 62K points
//	ildq-gen -kind rects  -out longbeach.ilq             # 53K rectangles
//	ildq-gen -kind points -n 5000 -seed 7 -out small.ilq
//
// The defaults reproduce the paper's dataset shapes (synthetic
// stand-ins; see package internal/dataset for the substitution).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
)

func main() {
	var (
		kind     = flag.String("kind", "points", "dataset kind: points or rects")
		out      = flag.String("out", "", "output file (required)")
		n        = flag.Int("n", 0, "record count (0 = paper default for the kind)")
		seed     = flag.Int64("seed", 0, "generator seed (0 = paper default)")
		clusters = flag.Int("clusters", -1, "cluster count (-1 = paper default)")
		hotspot  = flag.Bool("hotspot", false, "skewed workload: Zipf-weighted cluster choice (exponent -zipf-s) instead of uniform")
		zipfS    = flag.Float64("zipf-s", 1.1, "Zipf exponent for -hotspot (higher = more skew)")
	)
	flag.Parse()
	skew := 0.0
	if *hotspot {
		skew = *zipfS
		if skew <= 0 {
			fmt.Fprintln(os.Stderr, "ildq-gen: -zipf-s must be positive with -hotspot")
			os.Exit(2)
		}
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "ildq-gen: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	switch *kind {
	case "points":
		cfg := dataset.CaliforniaConfig()
		if *n > 0 {
			cfg.N = *n
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		if *clusters >= 0 {
			cfg.Clusters = *clusters
		}
		cfg.ZipfS = skew
		pts := dataset.GeneratePoints(cfg)
		if err := dataset.SavePointsFile(*out, pts); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d points to %s (seed %d, %d clusters%s)\n",
			len(pts), *out, cfg.Seed, cfg.Clusters, skewNote(skew))
	case "rects":
		cfg := dataset.LongBeachConfig()
		if *n > 0 {
			cfg.N = *n
		}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		if *clusters >= 0 {
			cfg.Clusters = *clusters
		}
		cfg.ZipfS = skew
		rects := dataset.GenerateRects(cfg)
		if err := dataset.SaveRectsFile(*out, rects); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d rectangles to %s (seed %d, %d clusters%s)\n",
			len(rects), *out, cfg.Seed, cfg.Clusters, skewNote(skew))
	default:
		fmt.Fprintf(os.Stderr, "ildq-gen: unknown kind %q (want points or rects)\n", *kind)
		os.Exit(2)
	}
}

func skewNote(s float64) string {
	if s <= 0 {
		return ""
	}
	return fmt.Sprintf(", hotspot zipf-s %g", s)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ildq-gen: %v\n", err)
	os.Exit(1)
}
