package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
)

// smallConfig keeps experiment tests fast: tiny datasets, few queries.
func smallConfig() Config {
	return Config{Points: 4000, Rects: 3000, Queries: 6, Seed: 3}
}

func smallEnv(t *testing.T, cfg Config) *Env {
	t.Helper()
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func checkFigure(t *testing.T, fig Figure, wantSeries, wantSamples int) {
	t.Helper()
	if len(fig.Series) != wantSeries {
		t.Fatalf("%s: %d series, want %d", fig.ID, len(fig.Series), wantSeries)
	}
	for _, s := range fig.Series {
		if len(s.Samples) != wantSamples {
			t.Fatalf("%s/%s: %d samples, want %d", fig.ID, s.Name, len(s.Samples), wantSamples)
		}
		for _, p := range s.Samples {
			if p.TimeMS < 0 || p.NodeIO < 0 || p.Candidates < 0 {
				t.Fatalf("%s/%s: negative metric %+v", fig.ID, s.Name, p)
			}
		}
	}
}

func TestDefaults(t *testing.T) {
	p := DefaultParams()
	if p.U != 250 || p.W != 500 || p.Qp != 0 {
		t.Fatalf("DefaultParams = %+v", p)
	}
	c := Config{}.withDefaults()
	if c.Points != dataset.CaliforniaSize || c.Rects != dataset.LongBeachSize || c.Queries != 500 {
		t.Fatalf("default config = %+v", c)
	}
	if len(USweep()) != 11 || USweep()[10] != 1000 {
		t.Fatalf("USweep = %v", USweep())
	}
	if len(QpSweep()) != 11 || QpSweep()[10] != 1 {
		t.Fatalf("QpSweep = %v", QpSweep())
	}
	if len(AllFigureIDs()) != 17 {
		t.Fatalf("AllFigureIDs = %v", AllFigureIDs())
	}
}

func TestFig8ShapeAndOrdering(t *testing.T) {
	env := smallEnv(t, smallConfig())
	fig, err := Fig8(env, 100)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2, 11)
	// The paper's headline: the basic method is much slower than the
	// enhanced one. Compare summed response times.
	var enh, bas float64
	for i := range fig.Series[0].Samples {
		enh += fig.Series[0].Samples[i].TimeMS
		bas += fig.Series[1].Samples[i].TimeMS
	}
	if bas <= enh {
		t.Fatalf("basic (%.3fms) not slower than enhanced (%.3fms)", bas, enh)
	}
}

func TestFig9CandidatesGrowWithUAndW(t *testing.T) {
	env := smallEnv(t, smallConfig())
	fig, err := Fig9(env)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3, 11)
	// Candidate counts (hardware independent) must grow with u within
	// each series, and with w across series (paper: T increases with
	// both parameters because the Minkowski sum grows).
	for _, s := range fig.Series {
		first, last := s.Samples[0], s.Samples[len(s.Samples)-1]
		if last.Candidates <= first.Candidates {
			t.Fatalf("%s: candidates did not grow with u: %v -> %v",
				s.Name, first.Candidates, last.Candidates)
		}
	}
	// Across series at the same u index: larger w, more candidates.
	for i := range fig.Series[0].Samples {
		a := fig.Series[0].Samples[i].Candidates
		c := fig.Series[2].Samples[i].Candidates
		if c <= a {
			t.Fatalf("u=%g: w=1500 candidates %v not above w=500 %v",
				fig.Series[0].Samples[i].X, c, a)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	env := smallEnv(t, smallConfig())
	fig, err := Fig10(env)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3, 11)
	for _, s := range fig.Series {
		if s.Samples[len(s.Samples)-1].Candidates <= s.Samples[0].Candidates {
			t.Fatalf("%s: IUQ candidates did not grow with u", s.Name)
		}
	}
}

func TestFig11PExpansionPrunes(t *testing.T) {
	env := smallEnv(t, smallConfig())
	fig, err := Fig11(env)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2, 11)
	pexp, mink := fig.Series[0], fig.Series[1]
	// At high thresholds the p-expanded query must surface strictly
	// fewer candidates than the Minkowski sum; at Qp=0 they coincide.
	if pexp.Samples[0].Candidates != mink.Samples[0].Candidates {
		t.Fatalf("at Qp=0 candidate counts differ: %v vs %v",
			pexp.Samples[0].Candidates, mink.Samples[0].Candidates)
	}
	hi := len(pexp.Samples) - 3 // Qp = 0.8
	if pexp.Samples[hi].Candidates >= mink.Samples[hi].Candidates {
		t.Fatalf("at Qp=0.8 p-expanded candidates %v not below Minkowski %v",
			pexp.Samples[hi].Candidates, mink.Samples[hi].Candidates)
	}
	// Both series must return identical result counts (same answers).
	for i := range pexp.Samples {
		if pexp.Samples[i].Matches != mink.Samples[i].Matches {
			t.Fatalf("Qp=%g: match counts differ: %v vs %v",
				pexp.Samples[i].X, pexp.Samples[i].Matches, mink.Samples[i].Matches)
		}
	}
}

func TestFig12PTIPrunes(t *testing.T) {
	env := smallEnv(t, smallConfig())
	fig, err := Fig12(env)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2, 11)
	pexp, mink := fig.Series[0], fig.Series[1]
	hi := 6 // Qp = 0.6, the paper's highlighted point
	if pexp.Samples[hi].Refined >= mink.Samples[hi].Refined {
		t.Fatalf("at Qp=0.6 PTI refinement %v not below baseline %v",
			pexp.Samples[hi].Refined, mink.Samples[hi].Refined)
	}
	for i := range pexp.Samples {
		if pexp.Samples[i].Matches != mink.Samples[i].Matches {
			t.Fatalf("Qp=%g: match counts differ", pexp.Samples[i].X)
		}
	}
}

func TestFig13GaussianMonteCarlo(t *testing.T) {
	cfg := smallConfig()
	cfg.Kind = dataset.PDFGaussian
	env := smallEnv(t, cfg)
	fig, err := Fig13(env, 50)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2, 11)
	// The p-expanded query should save refinement at high thresholds.
	hi := 8
	pexp, mink := fig.Series[0], fig.Series[1]
	if pexp.Samples[hi].Refined > mink.Samples[hi].Refined {
		t.Fatalf("Gaussian: p-expanded refined %v above Minkowski %v",
			pexp.Samples[hi].Refined, mink.Samples[hi].Refined)
	}
}

func TestAblationStrategies(t *testing.T) {
	cfg := smallConfig()
	cfg.Queries = 4
	env := smallEnv(t, cfg)
	fig, err := AblationStrategies(env)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 7, 4)
	// "nothing" must refine at least as much as "all strategies".
	all, nothing := fig.Series[0], fig.Series[6]
	for i := range all.Samples {
		if all.Samples[i].Refined > nothing.Samples[i].Refined {
			t.Fatalf("Qp=%g: full pruning refined more than none", all.Samples[i].X)
		}
		if all.Samples[i].Matches != nothing.Samples[i].Matches {
			t.Fatalf("Qp=%g: ablation changed answers", all.Samples[i].X)
		}
	}
}

func TestAblationCatalogSize(t *testing.T) {
	cfg := smallConfig()
	cfg.Queries = 4
	fig, err := AblationCatalogSize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3, 4)
	// A richer catalog must not refine more than a coarser one
	// (averaged over the sweep).
	var coarse, fine float64
	for i := range fig.Series[0].Samples {
		coarse += fig.Series[0].Samples[i].Refined
		fine += fig.Series[2].Samples[i].Refined
	}
	if fine > coarse {
		t.Fatalf("10-value catalog refined more (%v) than 2-value (%v)", fine, coarse)
	}
}

func TestThroughput(t *testing.T) {
	cfg := smallConfig()
	env := smallEnv(t, cfg)
	rep, err := Throughput(env, 8, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.QPS <= 0 || p.Queries != 8 || p.Seconds <= 0 {
			t.Fatalf("bad throughput point %+v", p)
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "qps") {
		t.Fatalf("render missing qps column:\n%s", buf.String())
	}
}

func TestThroughputIO(t *testing.T) {
	cfg := smallConfig()
	rep, err := ThroughputIO(cfg, 6, []int{1, 4}, 32, 50*time.Microsecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.QPS <= 0 || p.Seconds <= 0 {
			t.Fatalf("bad throughput point %+v", p)
		}
	}
	// Wall-clock scaling is reported, not asserted: on a loaded CI host
	// a 6-query run can lose to scheduling noise without any defect.
	if rep.Points[1].QPS < rep.Points[0].QPS {
		t.Logf("note: io-bound throughput fell with workers: %+v", rep.Points)
	}
}

func TestAdaptiveRefinementExperiment(t *testing.T) {
	env := smallEnv(t, Config{Points: 300, Rects: 1500, Queries: 4, Seed: 6})
	rep, err := AdaptiveRefinement(env, 4, []float64{0.1, 0.5}, 512)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MCSamples != 512 || len(rep.Points) != 2 {
		t.Fatalf("report shape: %+v", rep)
	}
	for _, p := range rep.Points {
		if !p.QualifyingEqual {
			t.Fatalf("qp=%g: early termination changed the qualifying set", p.Threshold)
		}
		if p.Refined == 0 {
			t.Fatalf("qp=%g: workload refined nothing", p.Threshold)
		}
		if p.AdaptiveSamples >= p.FullSamples {
			t.Fatalf("qp=%g: no sampling saved (%d adaptive vs %d full)",
				p.Threshold, p.AdaptiveSamples, p.FullSamples)
		}
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	if !strings.Contains(buf.String(), "adaptive refinement") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestNNRefinementExperiment(t *testing.T) {
	env := smallEnv(t, Config{Points: 2000, Rects: 200, Queries: 4, Seed: 9})
	rep, err := NNRefinement(env, 4, []float64{0.9}, 256, 4096, []int{20, 80})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scale) != 2 || len(rep.Thresholds) != 1 {
		t.Fatalf("report shape: %+v", rep)
	}
	for _, p := range rep.Scale {
		if p.SharedSamples != 256 {
			t.Fatalf("%d candidates: drew %d shared samples, want 256", p.Candidates, p.SharedSamples)
		}
		if p.QuadMS <= 0 {
			t.Fatalf("%d candidates: quadratic baseline skipped below the cap", p.Candidates)
		}
	}
	// 80 candidates cost the quadratic baseline 80× the shared kernel's
	// distance evaluations; even on a noisy host it must lose clearly.
	if s := rep.Scale[1].Speedup; s <= 2 {
		t.Fatalf("shared kernel speedup at 80 candidates = %.2fx, want > 2x", s)
	}
	thr := rep.Thresholds[0]
	if !thr.QualifyingEqual {
		t.Fatalf("qp=%g: adaptive termination changed the qualifying set", thr.Threshold)
	}
	if thr.EarlyStopped == 0 {
		t.Fatalf("qp=%g: no candidate retired early: %+v", thr.Threshold, thr)
	}
	if thr.AdaptiveSamples >= thr.FullSamples {
		t.Fatalf("qp=%g: no sampling saved (%d adaptive vs %d full)",
			thr.Threshold, thr.AdaptiveSamples, thr.FullSamples)
	}
	var buf bytes.Buffer
	rep.Render(&buf)
	for _, want := range []string{"nn refinement", "speedup", "sets="} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRender(t *testing.T) {
	env := smallEnv(t, Config{Points: 500, Rects: 500, Queries: 2, Seed: 4})
	fig, err := Fig9(env)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Render(&buf, true)
	out := buf.String()
	for _, want := range []string{"fig9", "Range Size=500", "time(ms)", "nodeIO"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	fig.Render(&buf, false)
	if strings.Contains(buf.String(), "nodeIO") {
		t.Fatal("plain render should omit IO columns")
	}
}

func TestIOExperiment(t *testing.T) {
	cfg := smallConfig()
	cfg.Queries = 4
	fig, err := IOExperiment(cfg, []int{4, 256})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2, 2)
	// A tiny pool must do at least as many physical reads as a big one
	// at the same sweep point.
	small, big := fig.Series[0], fig.Series[1]
	for i := range small.Samples {
		if small.Samples[i].NodeIO < big.Samples[i].NodeIO {
			t.Fatalf("Qp=%g: small pool %v physical reads below big pool %v",
				small.Samples[i].X, small.Samples[i].NodeIO, big.Samples[i].NodeIO)
		}
	}
	// Threshold pruning (Qp=0.6) must not read more pages than Qp=0
	// on the same pool.
	for _, s := range fig.Series {
		if s.Samples[1].NodeIO > s.Samples[0].NodeIO {
			t.Fatalf("%s: Qp=0.6 reads %v pages, above Qp=0's %v",
				s.Name, s.Samples[1].NodeIO, s.Samples[0].NodeIO)
		}
	}
}

func TestSensitivity(t *testing.T) {
	cfg := smallConfig()
	ipq, err := SensitivityIPQ(cfg, []int{20, 200}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(ipq.Rows) != 2 {
		t.Fatalf("IPQ rows = %d", len(ipq.Rows))
	}
	// More samples, less error (the paper's convergence claim).
	if ipq.Rows[1].MeanAbsErr >= ipq.Rows[0].MeanAbsErr {
		t.Fatalf("IPQ error did not fall with samples: %v -> %v",
			ipq.Rows[0].MeanAbsErr, ipq.Rows[1].MeanAbsErr)
	}
	// At the paper's 200-sample operating point the mean error is a
	// usable probability estimate (they picked it for that reason).
	if ipq.Rows[1].MeanAbsErr > 0.05 {
		t.Fatalf("IPQ mean error at 200 samples = %v", ipq.Rows[1].MeanAbsErr)
	}
	iuq, err := SensitivityIUQ(cfg, []int{20, 250}, 30)
	if err != nil {
		t.Fatal(err)
	}
	if iuq.Rows[1].MeanAbsErr >= iuq.Rows[0].MeanAbsErr {
		t.Fatalf("IUQ error did not fall with samples: %v -> %v",
			iuq.Rows[0].MeanAbsErr, iuq.Rows[1].MeanAbsErr)
	}
	var buf bytes.Buffer
	ipq.Render(&buf)
	if !strings.Contains(buf.String(), "C-IPQ") {
		t.Fatal("render missing kind")
	}
}
