package bench

import (
	"bytes"
	"strings"
	"testing"

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
	if len(IDs()) != 10 {
		t.Fatalf("IDs = %v", IDs())
	}
}

// Select returns rows in table order whatever the order asked for, and
// names every known id when it rejects one.
func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(Experiments) {
		t.Fatalf("Select(all) = %d experiments, err %v", len(all), err)
	}
	got, err := Select("fig10, fig9,fig10")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "fig9" || got[1].ID != "fig10" {
		t.Fatalf("Select(fig10, fig9,fig10) = %v", got)
	}
	_, err = Select("fig9,nosuch")
	if err == nil {
		t.Fatal("Select accepted an unknown id")
	}
	for _, id := range IDs() {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("error %q does not list %s", err, id)
		}
	}
}

// At a fixed seed a figure's hardware-independent columns depend on the
// figure alone, not on which experiments ran before it on the same Env.
func TestFigureIndependentOfSelection(t *testing.T) {
	cfg := Config{Points: 500, Rects: 1500, Queries: 3, Seed: 4}
	alone, err := Fig10(smallEnv(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	env := smallEnv(t, cfg)
	if _, err := Fig9(env); err != nil {
		t.Fatal(err)
	}
	after, err := Fig10(env)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range alone.Series {
		for j, a := range s.Samples {
			b := after.Series[i].Samples[j]
			a.TimeMS, b.TimeMS = 0, 0
			if a != b {
				t.Fatalf("%s u=%g: alone %+v, after fig9 %+v", s.Name, a.X, a, b)
			}
		}
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
