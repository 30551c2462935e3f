package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// manifest is the part of BENCHMARK.json the repeat check reads.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readManifest(root string) (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(raw, &m)
}

// boundCap is the largest regression bound the driver accepts.
const boundCap = 0.25

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the default, exclusive method):
// the statistic the driver judges run-to-run spread by.
func quartiles(xs []float64) (q1, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	at := func(i int) float64 {
		m := len(xs) + 1
		j := min(max(i*m/4, 1), len(xs)-1)
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(3)
}

// runSet runs every workload n times untraced, with seeds seed,
// seed+1, ..., and returns the values by workload and metric. The
// workloads take turns, so the runs of one are spread over the whole
// set and a slow spell of the host touches a run or two of each
// workload, not half the runs of one.
func runSet(cfg config, n int) (map[string]map[string][]float64, error) {
	set := map[string]map[string][]float64{}
	for i := range n {
		for _, w := range workloads {
			if set[w.name] == nil {
				set[w.name] = map[string][]float64{}
			}
			c := cfg
			c.seed = cfg.seed + int64(i)
			v, t, err := runUntraced(c, w)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.name, c.seed, err)
			}
			if t.failed > 0 {
				return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, c.seed, t.failed, t.attempted)
			}
			for name, x := range v {
				set[w.name][name] = append(set[w.name][name], x)
			}
			fmt.Fprintf(os.Stderr, "%s %s seed %d: %v\n", time.Now().Format("15:04:05"), w.name, c.seed, v)
		}
	}
	return set, nil
}

// boundFor is the rule for a metric's regression bound: three times
// its largest spread — the driver wants every spread under a third of
// the bound — rounded up to a multiple of 5%, so that a re-calibration
// in other weather lands on the same number, and capped.
func boundFor(worstSpread float64) float64 {
	return min(boundCap, 0.05*max(1, math.Ceil(3*worstSpread/0.05-1e-9)))
}

// spread is the distance between the quartiles as a share of the
// median: the statistic the driver holds against a metric's bound.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// writeRecord writes CALIBRATION.md: per metric and workload the values
// of every set, their spread, and — with two sets — by how much the
// medians differ. It returns how many metric × workload pairs differ by
// more than the bound BENCHMARK.json gives the metric.
func writeRecord(cfg config, mf manifest, n int, sets []map[string]map[string][]float64) (int, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# Calibration record\n\n")
	fmt.Fprintf(&b, "%d set(s) of %d runs per workload, seeds %d to %d, `--seconds %g`, on an unchanged tree: nproc=%d, GOMAXPROCS=%d, %s, %s.\n",
		len(sets), n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), time.Now().Format("2006-01-02 15:04"))
	fmt.Fprintf(&b, "Every run of a set uses another seed (other requests and moves over the same data), as the driver's runs do;\n")
	fmt.Fprintf(&b, "within a set the workloads take turns. `iqr/med` is the distance between the first and third quartile\n")
	fmt.Fprintf(&b, "(Python's `statistics.quantiles(values, n=4)`) as a share of the median, the spread the driver holds\n")
	fmt.Fprintf(&b, "against a metric's bound; `range/med` is (max - min) / median. A bound is three times the largest `iqr/med`\n")
	fmt.Fprintf(&b, "of its metric, rounded up to a multiple of 5%% and never over the driver's cap of %.0f%%.\n", 100*boundCap)
	bad := 0
	for _, d := range mf.EndToEnd {
		worst := 0.0
		fmt.Fprintf(&b, "\n## %s (%s), bound %.0f%%\n\n| workload | set | median | iqr/med | range/med | values |\n|---|---|---|---|---|---|\n", d.Name, d.Unit, 100*d.Bound)
		var diffs []string
		for _, w := range workloads {
			for i, set := range sets {
				xs := set[w.name][d.Name]
				worst = max(worst, spread(xs))
				strs := make([]string, len(xs))
				for j, x := range xs {
					strs[j] = fmt.Sprintf("%.4g", x)
				}
				fmt.Fprintf(&b, "| %s | %d | %.4g | %.1f%% | %.1f%% | %s |\n", w.name, i+1, median(xs), 100*spread(xs),
					100*(slices.Max(xs)-slices.Min(xs))/median(xs), strings.Join(strs, " "))
			}
			if len(sets) == 2 {
				a, c := median(sets[0][w.name][d.Name]), median(sets[1][w.name][d.Name])
				diff := (c - a) / a
				verdict := ""
				if math.Abs(diff) > d.Bound {
					verdict = " DIFFERS"
					bad++
				}
				diffs = append(diffs, fmt.Sprintf("%s %+.1f%%%s", w.name, 100*diff, verdict))
			}
		}
		fmt.Fprintf(&b, "\nLargest iqr/med %.1f%% → rule gives %.0f%%.", 100*worst, 100*boundFor(worst))
		if len(diffs) > 0 {
			fmt.Fprintf(&b, " Second median against first: %s.", strings.Join(diffs, ", "))
		}
		fmt.Fprintf(&b, "\n")
	}
	path := filepath.Join(cfg.root, "benchmark", "CALIBRATION.md")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return bad, err
	}
	fmt.Println("wrote", path)
	return bad, nil
}

// runCalibrate measures the run-to-run spread of every end-to-end
// metric on an unchanged tree and records it in CALIBRATION.md, next
// to the bound the rule gives.
func runCalibrate(cfg config, n int) error {
	if n < 5 {
		return fmt.Errorf("calibration wants at least 5 runs, got %d", n)
	}
	mf, err := readManifest(cfg.root)
	if err != nil {
		return err
	}
	set, err := runSet(cfg, n)
	if err != nil {
		return err
	}
	_, err = writeRecord(cfg, mf, n, []map[string]map[string][]float64{set})
	return err
}

// runCheckRepeat runs two sets back to back, records both in
// CALIBRATION.md, and fails if, for any workload, the two sets' medians
// of an end-to-end metric differ — in either direction — by more than
// the metric's bound.
func runCheckRepeat(cfg config, n int) error {
	mf, err := readManifest(cfg.root)
	if err != nil {
		return err
	}
	first, err := runSet(cfg, n)
	if err != nil {
		return err
	}
	second, err := runSet(cfg, n)
	if err != nil {
		return err
	}
	bad, err := writeRecord(cfg, mf, n, []map[string]map[string][]float64{first, second})
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d metric × workload pairs disagree between two sets of runs of the same code; see CALIBRATION.md", bad)
	}
	return nil
}
