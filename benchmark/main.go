// Command benchmark is the repository's benchmark: a closed-loop load
// generator driving a real ildq-router + ildq-serve fleet over
// HTTP/JSON, with an answer check against a single in-process engine
// and a traced in-process run that splits the latency by layer. See
// README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/serve"
)

// sizing is what differs between the benchmark proper and the smoke
// test that runs the same code in a few seconds.
type sizing struct {
	rects, points int
	// checkQueries is how many requests of each kind the answer check
	// compares before timing (and, after a workload that writes, how
	// many range queries it compares against the final state).
	checkQueries int
	warmUp       time.Duration
	// traceOpsCap bounds the traced run's operation count.
	traceOpsCap int
}

// paperSizing is the paper's data (§6.1): 53 000 uncertain rectangles
// and 62 000 points in a 10 000² space.
var paperSizing = sizing{
	rects:        53000,
	points:       62000,
	checkQueries: 100,
	warmUp:       1500 * time.Millisecond,
	traceOpsCap:  1 << 30,
}

// setupRuns is how many times an untraced run boots and loads a fresh
// fleet; setup_s is the median, and the last fleet is the one measured.
const setupRuns = 3

type config struct {
	seed    int64
	seconds float64
	trace   bool
	root    string
	bin     string
}

func main() {
	var (
		name        = flag.String("workload", "", "workload to run (default: all of them, one after another)")
		seed        = flag.Int64("seed", 1, "seed of every request and move stream (the data is the same in every run)")
		seconds     = flag.Float64("seconds", 20, "measured seconds per run (solo + saturation phases)")
		trace       = flag.Int("trace", 0, "1: traced run, reporting the per-layer metrics; 0: untraced run, reporting the end-to-end metrics")
		calibrate   = flag.Int("calibrate", 0, "run every workload this many times (seeds seed, seed+1, ...) and write CALIBRATION.md")
		checkRepeat = flag.Int("check-repeat", 0, "run two sets of this many runs per workload and fail if any pair of medians differs by more than the metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0}
	var err error
	if cfg.root, err = repoRoot(); err != nil {
		fatal(err)
	}
	if cfg.bin, err = buildBinaries(cfg.root); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seed, cfg.seconds, cfg.trace)

	switch {
	case *calibrate > 0:
		err = runCalibrate(cfg, *calibrate)
	case *checkRepeat > 0:
		err = runCheckRepeat(cfg, *checkRepeat)
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		err = runOne(cfg, w, true)
	default:
		for _, w := range workloads {
			if err = runOne(cfg, w, false); err != nil {
				break
			}
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}

// runOne runs one workload, prints its metrics by name, and — for the
// driver — the JSON result as the last line. Wrong answers and failed
// operations are reported in that line; without a driver reading it
// they fail the command.
func runOne(cfg config, w workload, driver bool) error {
	defs := endToEnd
	run := runUntraced
	if cfg.trace {
		defs, run = perLayer, runTraced
	}
	v, t, err := run(cfg, w)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if err := v.complete(defs); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	printTable(os.Stdout, w, defs, v)
	fmt.Printf("%-16s attempted %d, failed %d\n", w.name, t.attempted, t.failed)
	if driver {
		fmt.Println(resultLine(t, defs, v))
	} else if t.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, t.failed, t.attempted)
	}
	return nil
}

// dataDir names a fresh directory for one fleet's shards, inside the
// checkout.
func dataDir(cfg config, w workload, n int) string {
	return filepath.Join(cfg.root, ".bench_build", "data", fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), n))
}

// setUp boots a fresh fleet and bulk-loads the world through its
// router, timing first process start → healthy → load acknowledged.
func setUp(cfg config, w workload, batches [][]serve.UpdateJSON, n int) (*fleet, time.Duration, tally, error) {
	start := time.Now()
	f, err := startFleet(cfg.bin, dataDir(cfg, w, n))
	if err != nil {
		return nil, 0, tally{}, err
	}
	t, err := bulkLoad(f.routerURL, batches)
	if err != nil {
		f.kill()
		return nil, 0, t, err
	}
	return f, time.Since(start), t, nil
}

// runUntraced is the measured run: real processes, tracing off.
func runUntraced(cfg config, w workload) (values, tally, error) {
	sz := paperSizing
	wd := genWorld(sz.rects, sz.points)
	probe := newHostProbe()
	f, setupS, total, err := setUpRepeatedly(cfg, w, wd, setupRuns, probe)
	if err != nil {
		return nil, total, err
	}
	defer f.kill()
	m, err := checkAndMeasure(f.target(), w, wd, cfg.seed, cfg.seconds, sz, probe, &total)
	if err != nil {
		return nil, total, err
	}
	if err := f.stop(); err != nil {
		return nil, total, err
	}
	m.e2e["setup_s"] = setupS
	fmt.Fprintf(os.Stderr, "%s: solo n=%d, unscaled p50 %.3f ms; host yardstick wall %.2f ms, cpu %.2f ms (nominal %.1f)\n",
		w.name, m.soloN, m.unscaledSoloP50, m.layer["client.host_ref_wall_ms"], m.layer["client.host_ref_cpu_ms"], hostRefNominalMS)
	return m.e2e, total, nil
}

// setUpRepeatedly sets a fleet up n times, shutting all but the last
// one down again, and returns the last fleet with the median set-up
// time in seconds, each time scaled by the host yardstick's readings
// before and after it.
func setUpRepeatedly(cfg config, w workload, wd *world, n int, probe *hostProbe) (*fleet, float64, tally, error) {
	var total tally
	var times []float64
	batches := wd.loadBatches()
	ref := probe.read()
	for i := 0; ; i++ {
		f, d, t, err := setUp(cfg, w, batches, i)
		total.add(t)
		if err != nil {
			return nil, 0, total, err
		}
		next := probe.read()
		speed, _ := speedBetween(ref, next)
		times = append(times, d.Seconds()/speed)
		ref = next
		if i == n-1 {
			return f, median(times), total, nil
		}
		if err := f.stop(); err != nil {
			return nil, 0, total, err
		}
		ref = probe.read()
	}
}

// checkAndMeasure is the part of a run common to the process fleet and
// the smoke test's in-process one: answer check, timed phases, and —
// after a workload that writes — a second answer check against the
// state the writers left behind.
func checkAndMeasure(tg target, w workload, wd *world, seed int64, seconds float64, sz sizing, probe *hostProbe, total *tally) (measured, error) {
	c := newClient(tg.url)
	defer c.close()
	t, err := checkAnswers(c, wd, newQueryStream(wd, seed, "check", 0), []string{"uncertain", "points", "nn"}, sz.checkQueries)
	total.add(t)
	if err != nil {
		return measured{}, err
	}
	m, err := measure(tg, w, wd, seed, runtime.NumCPU(), sz.warmUp, seconds, probe)
	total.add(m.tally)
	if err != nil {
		return m, err
	}
	if w.kind == "" || w.paced {
		t, err := checkAnswers(c, wd, newQueryStream(wd, seed, "recheck", 0), []string{"uncertain"}, sz.checkQueries)
		total.add(t)
		if err != nil {
			return m, err
		}
	}
	return m, nil
}
