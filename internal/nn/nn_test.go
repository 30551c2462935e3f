package nn

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/mcbound"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// Exact1D is a closed-form reference: with a uniform issuer
// on a horizontal segment (degenerate-height U0) and objects on the
// same line, nearest-neighbor regions are intervals split at midpoints
// of consecutive objects, so probabilities are interval-length
// fractions. Objects must be sorted by X and distinct; the issuer
// segment is [a, b] at the same Y.
func Exact1D(xs []float64, a, b float64) []float64 {
	n := len(xs)
	out := make([]float64, n)
	if n == 0 || b <= a {
		return out
	}
	for i := range xs {
		lo := math.Inf(-1)
		hi := math.Inf(1)
		if i > 0 {
			lo = (xs[i-1] + xs[i]) / 2
		}
		if i < n-1 {
			hi = (xs[i] + xs[i+1]) / 2
		}
		out[i] = geom.IntervalOverlap(math.Max(lo, a), math.Min(hi, b), a, b) / (b - a)
	}
	return out
}

// refine runs Refine exhaustively and fails the test on an error.
func refine(t *testing.T, cands []uncertain.PointObject, issuer pdf.PDF, parent int64, samples int) []float64 {
	t.Helper()
	probs, _, err := Refine(cands, issuer, parent, RefineConfig{Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	return probs
}

// prune is the MinDist/MaxDist bound over a slice — the candidate set
// core's branch-and-bound keeps: tau is the smallest maximum distance
// any object has to u0, and an object whose minimum distance exceeds
// tau is never nearest. The survivors keep input order.
func prune(points []uncertain.PointObject, u0 geom.Rect) []uncertain.PointObject {
	tau := math.Inf(1)
	for _, p := range points {
		tau = min(tau, u0.MaxDist(p.Loc))
	}
	var cands []uncertain.PointObject
	for _, p := range points {
		if u0.MinDist(p.Loc) <= tau {
			cands = append(cands, p)
		}
	}
	return cands
}

func TestSingleObjectAlwaysWins(t *testing.T) {
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(50, 50), 10, 10))
	pts := []uncertain.PointObject{{ID: 7, Loc: geom.Pt(80, 80)}}
	if probs := refine(t, pts, issuer, 1, 500); len(probs) != 1 || probs[0] != 1 {
		t.Fatalf("single object result = %v", probs)
	}
}

func TestSymmetricPairSplits(t *testing.T) {
	// Two objects mirror-symmetric about the issuer center: each wins
	// about half the time.
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 20, 20))
	pts := []uncertain.PointObject{
		{ID: 1, Loc: geom.Pt(-30, 0)},
		{ID: 2, Loc: geom.Pt(30, 0)},
	}
	probs := refine(t, pts, issuer, 5, 40000)
	for i, p := range probs {
		if math.Abs(p-0.5) > 0.02 {
			t.Fatalf("object %d probability %g, want ~0.5", pts[i].ID, p)
		}
	}
}

func TestAgainstExact1D(t *testing.T) {
	// Issuer on a thin horizontal strip; objects on the same line. The
	// Monte-Carlo result must match the interval closed form.
	xs := []float64{10, 22, 40, 41, 90}
	a, b := 0.0, 100.0
	issuer := pdf.MustUniform(geom.Rect{Lo: geom.Pt(a, 50), Hi: geom.Pt(b, 50.001)})
	var pts []uncertain.PointObject
	for i, x := range xs {
		pts = append(pts, uncertain.PointObject{ID: uncertain.ID(i), Loc: geom.Pt(x, 50)})
	}
	probs := refine(t, pts, issuer, 6, 60000)
	for i, w := range Exact1D(xs, a, b) {
		if math.Abs(probs[i]-w) > 0.015 {
			t.Fatalf("object %d: MC %g vs exact %g", i, probs[i], w)
		}
	}
}

func TestExact1DEdgeCases(t *testing.T) {
	if out := Exact1D(nil, 0, 10); len(out) != 0 {
		t.Fatal("empty input should give empty output")
	}
	out := Exact1D([]float64{5}, 0, 10)
	if out[0] != 1 {
		t.Fatalf("lone object share = %g", out[0])
	}
	// Degenerate segment.
	out = Exact1D([]float64{1, 2}, 5, 5)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("degenerate segment shares = %v", out)
	}
	// Shares always sum to 1 on a proper segment.
	out = Exact1D([]float64{1, 2, 3, 50, 99}, 0, 100)
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %g", sum)
	}
}

func TestRefineThreshold(t *testing.T) {
	// The caller keeps p >= qp: there is such a candidate, and every
	// one Refine reports at or above qp is one.
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 10, 10))
	pts := []uncertain.PointObject{
		{ID: 1, Loc: geom.Pt(-5, 0)},
		{ID: 2, Loc: geom.Pt(5, 0)},
		{ID: 3, Loc: geom.Pt(0, 14)}, // occasionally nearest
	}
	probs, _, err := Refine(pts, issuer, 7, RefineConfig{Samples: 20000, Threshold: 0.25, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	var kept int
	for _, p := range probs {
		if p >= 0.25 {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("no matches above threshold")
	}
}

func TestGaussianIssuerConcentrates(t *testing.T) {
	// With a Gaussian issuer, the object near the mean should win far
	// more often than under a uniform issuer.
	region := geom.RectCentered(geom.Pt(0, 0), 30, 30)
	gauss, err := pdf.NewTruncGaussian(region, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	uni := pdf.MustUniform(region)
	pts := []uncertain.PointObject{
		{ID: 1, Loc: geom.Pt(0, 0)},    // at the mean
		{ID: 2, Loc: geom.Pt(25, 25)},  // corner
		{ID: 3, Loc: geom.Pt(-25, 25)}, // corner
	}
	pG := refine(t, pts, gauss, 8, 20000)
	pU := refine(t, pts, uni, 9, 20000)
	if pG[0] <= pU[0] {
		t.Fatalf("Gaussian center win rate %g not above uniform %g", pG[0], pU[0])
	}
}

func TestProbabilitiesSumToExactlyOne(t *testing.T) {
	// The shared stream resolves every sample to exactly one winner, so
	// exhaustive estimates sum to 1 exactly — only float addition of
	// the final divisions separates the sum from 1.
	rng := rand.New(rand.NewSource(9))
	u0 := geom.RectCentered(geom.Pt(500, 500), 100, 100)
	var pts []uncertain.PointObject
	for i := 0; i < 60; i++ {
		pts = append(pts, uncertain.PointObject{
			ID:  uncertain.ID(i),
			Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
		})
	}
	cands := prune(pts, u0)
	probs := refine(t, cands, pdf.MustUniform(u0), rng.Int63(), 30000)
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %.17g, want exactly 1", sum)
	}
	if len(cands) > len(pts) {
		t.Fatalf("candidates %d exceed objects %d", len(cands), len(pts))
	}
}

// refineFixture builds a spread of candidates around a wide issuer so
// that threshold sweeps see clear winners, clear losers, and a few
// contested candidates.
func refineFixture(n int, seed int64) ([]uncertain.PointObject, pdf.PDF) {
	rng := rand.New(rand.NewSource(seed))
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 50, 50))
	var cands []uncertain.PointObject
	for i := 0; i < n; i++ {
		cands = append(cands, uncertain.PointObject{
			ID:  uncertain.ID(100 + i),
			Loc: geom.Pt(rng.Float64()*200-100, rng.Float64()*200-100),
		})
	}
	return cands, issuer
}

func TestRefineMatchesExact1D(t *testing.T) {
	// The shared-stream kernel against the interval closed form,
	// exercised directly (not through Evaluate).
	xs := []float64{5, 18, 44, 71, 93}
	a, b := 0.0, 100.0
	issuer := pdf.MustUniform(geom.Rect{Lo: geom.Pt(a, 10), Hi: geom.Pt(b, 10.001)})
	var cands []uncertain.PointObject
	for i, x := range xs {
		cands = append(cands, uncertain.PointObject{ID: uncertain.ID(i), Loc: geom.Pt(x, 10)})
	}
	probs, stats, err := Refine(cands, issuer, 77, RefineConfig{Samples: 60000})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != 60000 || stats.EarlyStopped != 0 || stats.Converged {
		t.Fatalf("exhaustive stats = %+v", stats)
	}
	want := Exact1D(xs, a, b)
	for i := range want {
		if math.Abs(probs[i]-want[i]) > 0.015 {
			t.Fatalf("candidate %d: MC %g vs exact %g", i, probs[i], want[i])
		}
	}
}

func TestRefineAdaptiveMatchesExhaustiveQualifyingSet(t *testing.T) {
	// Adaptive retirement must not change which candidates clear the
	// threshold, at any threshold — and candidates that were NOT
	// retired must carry tallies bit-identical to the exhaustive run
	// (retirees stay in the scan as blockers, so survivors see the
	// full candidate set).
	cands, issuer := refineFixture(24, 13)
	const parent = 314
	const samples = 40000
	exh, _, err := Refine(cands, issuer, parent, RefineConfig{Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	for _, qp := range []float64{0.1, 0.5, 0.9} {
		adapt, stats, err := Refine(cands, issuer, parent, RefineConfig{
			Samples: samples, Threshold: qp, Adaptive: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.EarlyStopped == 0 {
			t.Fatalf("qp=%.1f: nothing early-stopped in %d samples", qp, samples)
		}
		for i := range cands {
			if (adapt[i] >= qp) != (exh[i] >= qp) {
				t.Fatalf("qp=%.1f candidate %d: adaptive %v vs exhaustive %v straddle the threshold",
					qp, cands[i].ID, adapt[i], exh[i])
			}
			if !stats.Decided[i] && adapt[i] != exh[i] {
				t.Fatalf("qp=%.1f candidate %d survived but %v != exhaustive %v",
					qp, cands[i].ID, adapt[i], exh[i])
			}
		}
	}
}

func TestRefineAdaptiveConverges(t *testing.T) {
	// One dominant candidate and one hopeless one: both should be
	// decided long before the budget, stopping the stream entirely.
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 4, 4))
	cands := []uncertain.PointObject{
		{ID: 1, Loc: geom.Pt(0, 0)},
		{ID: 2, Loc: geom.Pt(90, 0)},
	}
	probs, stats, err := Refine(cands, issuer, 5, RefineConfig{
		Samples: 1 << 20, Threshold: 0.5, Adaptive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged || stats.EarlyStopped != 2 {
		t.Fatalf("stats = %+v, want full convergence", stats)
	}
	if stats.Samples >= 1<<20 {
		t.Fatalf("drew the whole budget (%d samples) despite convergence", stats.Samples)
	}
	if probs[0] < 0.5 || probs[1] >= 0.5 {
		t.Fatalf("probs = %v", probs)
	}
}

func TestRefineErrorPropagation(t *testing.T) {
	// A Cancel error cuts the stream at the next block and surfaces to
	// the caller, rather than leaving silent partial probabilities.
	cands, issuer := refineFixture(9, 17)
	wantErr := errors.New("boom")
	calls := 0
	_, _, err := Refine(cands, issuer, 1, RefineConfig{
		Samples: 100000,
		Cancel: func() error {
			if calls++; calls > 3 {
				return wantErr
			}
			return nil
		},
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("error = %v, want %v", err, wantErr)
	}
	if calls != 4 {
		t.Fatalf("Cancel polled %d times, want 4 (once per block until it fails)", calls)
	}
}

func TestRefinePartialFinalBlock(t *testing.T) {
	// A budget that is not a multiple of the block size must draw
	// exactly the budget, and the tallies must still sum to it.
	cands, issuer := refineFixture(5, 19)
	samples := 2*DefaultBlock + 37
	probs, stats, err := Refine(cands, issuer, 3, RefineConfig{Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != int64(samples) {
		t.Fatalf("drew %d samples, want %d", stats.Samples, samples)
	}
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("probabilities sum to %.17g", sum)
	}
}

func TestRefineNoCandidates(t *testing.T) {
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 1, 1))
	probs, stats, err := Refine(nil, issuer, 1, RefineConfig{})
	if err != nil || len(probs) != 0 || stats.Samples != 0 {
		t.Fatalf("empty refine = %v %+v %v", probs, stats, err)
	}
}

// bruteWins is the reference for the grid kernel: the linear
// all-candidates scan Refine used before it had a grid — nearest
// active candidate by a keep-first pass, vetoed when a retired
// candidate is nearer (or as near with a lower index) — under the same
// block seeds, round boundaries and decision rule, serially. It
// returns what Refine returns (less GridCells).
func bruteWins(cands []uncertain.PointObject, issuer pdf.PDF, parent int64, cfg RefineConfig) ([]float64, RefineStats) {
	cfg = cfg.withDefaults()
	n := len(cands)
	probs := make([]float64, n)
	wins := make([]int64, n)
	stats := RefineStats{Decided: make([]bool, n)}
	if n == 0 {
		return probs, stats
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	var blockers []int
	nBlocks := (cfg.Samples + cfg.Block - 1) / cfg.Block
	adaptive := cfg.Adaptive && cfg.Threshold > 0
	roundBlocks := nBlocks
	if adaptive {
		roundBlocks = cfg.RoundBlocks
	}
	drawn := 0
	for b0 := 0; b0 < nBlocks && len(active) > 0; b0 += roundBlocks {
		b1 := min(b0+roundBlocks, nBlocks)
		for b := b0; b < b1; b++ {
			rng := rand.New(rand.NewSource(mcbound.DeriveSeed(parent, b)))
			for s := b * cfg.Block; s < min((b+1)*cfg.Block, cfg.Samples); s++ {
				pos := issuer.Sample(rng)
				best, bd := -1, math.Inf(1)
				for _, i := range active {
					dx, dy := pos.X-cands[i].Loc.X, pos.Y-cands[i].Loc.Y
					if d := dx*dx + dy*dy; d < bd {
						best, bd = i, d
					}
				}
				if best < 0 {
					continue
				}
				blocked := false
				for _, j := range blockers {
					dx, dy := pos.X-cands[j].Loc.X, pos.Y-cands[j].Loc.Y
					if d := dx*dx + dy*dy; d < bd || (d == bd && j < best) {
						blocked = true
						break
					}
				}
				if !blocked {
					wins[best]++
				}
			}
		}
		stats.Rounds++
		drawn = min(b1*cfg.Block, cfg.Samples)
		stats.Samples = int64(drawn)
		if !adaptive || drawn >= cfg.Samples || drawn < 2 {
			continue
		}
		kept := active[:0]
		for _, i := range active {
			w := float64(wins[i])
			p, done := mcbound.Decided(w, w, drawn, cfg.Samples, cfg.Threshold, mcbound.Delta)
			if !done {
				kept = append(kept, i)
				continue
			}
			probs[i] = p
			stats.Decided[i] = true
			stats.EarlyStopped++
			blockers = append(blockers, i)
		}
		active = kept
	}
	stats.Converged = len(active) == 0
	for _, i := range active {
		probs[i] = float64(wins[i]) / float64(drawn)
	}
	return probs, stats
}

// requireBrute fails unless Refine keeps its contract against
// bruteWins, which resolves every sample. With Threshold = 0 every
// probability must agree bit for bit (a live candidate's is wins/drawn,
// a retired one's Decided(wins, …), so equal bits are equal tallies).
// With Threshold > 0 an undecided candidate below Threshold may report
// any probability below it, so the two must agree on which candidates
// reach Threshold, bit for bit on those candidates' probabilities and
// on every decided one's. Decided flags and every counter must agree
// either way, and Resolved is all of Samples when Threshold is 0.
func requireBrute(t testing.TB, name string, cands []uncertain.PointObject, issuer pdf.PDF, parent int64, cfg RefineConfig) RefineStats {
	t.Helper()
	probs, stats, err := Refine(cands, issuer, parent, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantP, want := bruteWins(cands, issuer, parent, cfg)
	qp := cfg.Threshold
	for i := range cands {
		same := math.Float64bits(probs[i]) == math.Float64bits(wantP[i])
		if qp > 0 && !want.Decided[i] && wantP[i] < qp {
			same = probs[i] < qp
		}
		if !same || stats.Decided[i] != want.Decided[i] {
			t.Fatalf("%s: candidate %d at %v: grid p=%v decided=%v, brute p=%v decided=%v (threshold %v)",
				name, i, cands[i].Loc, probs[i], stats.Decided[i], wantP[i], want.Decided[i], qp)
		}
	}
	if stats.Samples != want.Samples || stats.EarlyStopped != want.EarlyStopped ||
		stats.Converged != want.Converged || stats.Rounds != want.Rounds {
		t.Fatalf("%s: grid stats %+v, brute %+v", name, stats, want)
	}
	if stats.Resolved > stats.Samples || (qp <= 0 && stats.Resolved != stats.Samples) {
		t.Fatalf("%s: resolved %d of %d samples (threshold %v)", name, stats.Resolved, stats.Samples, qp)
	}
	return stats
}

// snapPDF rounds another pdf's samples to multiples of step, so that
// samples tie exactly between lattice candidates and land exactly on
// grid-cell boundaries.
type snapPDF struct {
	pdf.PDF
	step float64
}

func (s snapPDF) Sample(rng *rand.Rand) geom.Point {
	p := s.PDF.Sample(rng)
	return geom.Pt(math.Round(p.X/s.step)*s.step, math.Round(p.Y/s.step)*s.step)
}

// wildPDF replaces about a third of another pdf's samples with
// non-finite positions — what a uniform pdf over an overflowing or NaN
// region draws. No candidate is at a finite distance from one, so it
// is tallied for nobody.
type wildPDF struct{ pdf.PDF }

func (w wildPDF) Sample(rng *rand.Rand) geom.Point {
	p := w.PDF.Sample(rng)
	switch rng.Intn(9) {
	case 0:
		p.X = math.Inf(1)
	case 1:
		p.Y = math.Inf(-1)
	case 2:
		p.X, p.Y = math.NaN(), math.Inf(1)
	}
	return p
}

func pointsOf(coords ...[2]float64) []uncertain.PointObject {
	out := make([]uncertain.PointObject, len(coords))
	for i, c := range coords {
		out[i] = uncertain.PointObject{ID: uncertain.ID(i), Loc: geom.Pt(c[0], c[1])}
	}
	return out
}

// TestRefineGridMatchesBruteScan holds the candidate grid to the
// linear scan it replaced, tally for tally, over random layouts and the
// layouts a grid gets wrong first: exact distance ties, degenerate
// boxes, lopsided cells, and samples outside or on the edge of the
// grid — exhaustive and with enough adaptive rounds that retired
// candidates veto samples.
func TestRefineGridMatchesBruteScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20070415))
	random := func(n int, lo, hi float64) []uncertain.PointObject {
		cs := make([][2]float64, n)
		for i := range cs {
			cs[i] = [2]float64{lo + rng.Float64()*(hi-lo), lo + rng.Float64()*(hi-lo)}
		}
		return pointsOf(cs...)
	}
	// Integer coordinates on [0,16]² with repeats: 128 candidates make
	// an 8×8 grid of 2-wide cells, so half-integer samples tie between
	// candidates and sit on cell boundaries.
	lattice := make([][2]float64, 128)
	for i := range lattice {
		lattice[i] = [2]float64{float64(rng.Intn(17)), float64(rng.Intn(17))}
	}
	lattice[0], lattice[127] = [2]float64{0, 0}, [2]float64{16, 16}
	// Fifty candidates within 1e-3 of the origin and one far outlier:
	// the box is huge, so the cluster shares one cell.
	lopsided := make([][2]float64, 51)
	for i := range lopsided[:50] {
		lopsided[i] = [2]float64{rng.Float64() * 1e-3, rng.Float64() * 1e-3}
	}
	lopsided[50] = [2]float64{1e4, 1e4}
	line := func(n int, vertical bool) []uncertain.PointObject {
		cs := make([][2]float64, n)
		for i := range cs {
			cs[i] = [2]float64{rng.Float64() * 100, 7}
			if vertical {
				cs[i] = [2]float64{7, rng.Float64() * 100}
			}
		}
		return pointsOf(cs...)
	}
	// Sixteen candidates that split the issuer about evenly, each
	// nearest to ~1/16 of it: a threshold of 0.05 is reached only over
	// several chunks.
	var j4 [][2]float64
	for i := range 16 {
		j4 = append(j4, [2]float64{12.5 + 25*float64(i%4) + rng.Float64()*4, 12.5 + 25*float64(i/4) + rng.Float64()*4})
	}
	jittered4x4 := pointsOf(j4...)
	gauss, err := pdf.NewTruncGaussian(geom.RectCentered(geom.Pt(50, 50), 60, 60), 15, 25)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, 12)
	for i := range weights {
		weights[i] = rng.Float64()
	}
	gridPDF, err := pdf.NewGrid(geom.RectCentered(geom.Pt(50, 50), 40, 30), 4, 3, weights)
	if err != nil {
		t.Fatal(err)
	}
	uniform := func(cx, cy, half float64) pdf.PDF {
		return pdf.MustUniform(geom.RectCentered(geom.Pt(cx, cy), half, half))
	}

	// pdf.NewUniform refuses a support this wide; unchecked marginals
	// build the same product, as a custom pdf could.
	wide := pdf.UniformOn(-1.7e308, 1.7e308)
	overflowing := pdf.NewProduct(&wide, &wide)
	cases := []struct {
		name   string
		cands  []uncertain.PointObject
		issuer pdf.PDF
	}{
		{"random/uniform", random(300, 0, 100), uniform(50, 50, 20)},
		{"random/gaussian", random(300, 0, 100), gauss},
		{"random/grid-pdf", random(300, 0, 100), gridPDF},
		{"few/uniform", random(6, 0, 100), uniform(50, 50, 40)},
		{"sparse/uniform", random(40, 0, 100), uniform(50, 50, 45)},
		{"jittered-4x4", jittered4x4, uniform(50, 50, 50)},
		{"lattice/snapped", pointsOf(lattice...), snapPDF{uniform(8, 8, 10), 0.5}},
		{"coincident", pointsOf([2]float64{3, 3}, [2]float64{3, 3}, [2]float64{3, 3}, [2]float64{9, 3}, [2]float64{9, 3}), snapPDF{uniform(6, 3, 5), 1}},
		{"all-coincident", pointsOf([2]float64{5, 5}, [2]float64{5, 5}, [2]float64{5, 5}, [2]float64{5, 5}), uniform(0, 0, 10)},
		{"lopsided", pointsOf(lopsided...), uniform(0, 0, 2e-3)},
		{"lopsided/wide", pointsOf(lopsided...), uniform(5e3, 5e3, 6e3)},
		{"collinear/horizontal", line(40, false), uniform(50, 7, 30)},
		{"collinear/vertical", line(40, true), uniform(7, 50, 30)},
		{"single", pointsOf([2]float64{1, 2}), uniform(0, 0, 5)},
		{"issuer-much-larger", random(200, 0, 10), uniform(5, 5, 1000)},
		{"issuer-disjoint", random(200, 0, 10), uniform(550, -300, 50)},
		{"issuer-disjoint/snapped", pointsOf(lattice...), snapPDF{uniform(40, 8, 12), 0.5}},
		// Every sample at one point, so each cell's box is that point
		// and its nearest candidate's MinDist equals its MaxDist: on a
		// candidate, and away from every one.
		{"point-issuer/on-candidate", pointsOf(lattice...), snapPDF{uniform(8, 8, 10), 1000}},
		{"point-issuer/off-candidates", pointsOf(lattice...), snapPDF{uniform(9000, 9000, 10), 1000}},
		{"non-finite-samples", random(300, 0, 100), wildPDF{uniform(50, 50, 20)}},
		{"non-finite-samples/single", pointsOf([2]float64{1, 2}), wildPDF{uniform(0, 0, 5)}},
		{"overflowing-support", random(50, 0, 100), overflowing},
	}
	var skipped int64
	for _, tc := range cases {
		requireBrute(t, tc.name+"/exhaustive", tc.cands, tc.issuer, 7, RefineConfig{Samples: 1500})
		// One round with no decision pass after it: only the cells that
		// can lift a candidate to the threshold are resolved.
		for _, cfg := range []RefineConfig{
			{Samples: 1500, Threshold: 0.1, Adaptive: true},
			{Samples: 1500, Threshold: 0.02},
			{Samples: 1500, Threshold: 0.3},
			// A lone candidate can reach 1 only by winning every sample
			// it is listed for: its bound is met exactly.
			{Samples: 1500, Threshold: 1},
			// Four chunks: the first three may skip only what the samples
			// after them cannot lift to the threshold either.
			{Samples: 4 * chunkSamples, Threshold: 0.04},
			{Samples: 8 * chunkSamples, Threshold: 0.05},
		} {
			stats := requireBrute(t, tc.name+"/final-round", tc.cands, tc.issuer, 13, cfg)
			skipped += stats.Samples - stats.Resolved
		}
		// Four 2 048-sample rounds: candidates retire after the first
		// and veto samples in the later ones.
		stats := requireBrute(t, tc.name+"/adaptive", tc.cands, tc.issuer, 11, RefineConfig{
			Samples: 4 * DefaultRoundBlocks * DefaultBlock, Threshold: 0.1, Adaptive: true,
		})
		if len(tc.cands) > 1 && stats.EarlyStopped == 0 {
			t.Fatalf("%s: no candidate retired, the retired-nearest veto went unexercised", tc.name)
		}
	}
	if skipped == 0 {
		t.Fatal("every final-round sample was resolved: the restricted path went unexercised")
	}
}

// FuzzRefineGrid: fuzzed candidate coordinates and seed, grid tallies
// keep requireBrute's contract with the brute scan's — every bit
// exhaustively, the answer and every stat with a threshold.
func FuzzRefineGrid(f *testing.F) {
	f.Add([]byte{0, 0, 255, 255, 7, 9, 7, 9, 128, 128}, int64(1), uint8(0))
	f.Add([]byte{1, 1, 1, 1, 1, 1}, int64(2), uint8(1))
	f.Add([]byte{0, 5, 50, 5, 100, 5, 150, 5, 200, 5, 250, 5}, int64(3), uint8(1))
	f.Add([]byte{0, 0, 255, 255, 7, 9, 7, 9, 128, 128}, int64(4), uint8(2))
	f.Fuzz(func(t *testing.T, coords []byte, seed int64, mode uint8) {
		if len(coords) < 2 || len(coords) > 512 {
			return
		}
		// Byte pairs on a coarse lattice collide and tie often; the seed
		// perturbs every other candidate off it.
		jitter := rand.New(rand.NewSource(seed))
		cs := make([][2]float64, len(coords)/2)
		for i := range cs {
			cs[i] = [2]float64{float64(coords[2*i]), float64(coords[2*i+1])}
			if i%2 == 1 {
				cs[i][0] += jitter.Float64()
				cs[i][1] += jitter.Float64()
			}
		}
		var issuer pdf.PDF = pdf.MustUniform(geom.RectCentered(
			geom.Pt(jitter.Float64()*300-20, jitter.Float64()*300-20), 1+jitter.Float64()*200, 1+jitter.Float64()*200))
		switch mode % 3 {
		case 1:
			issuer = snapPDF{issuer, 0.5}
		case 2:
			issuer = wildPDF{issuer}
		}
		requireBrute(t, "fuzz", pointsOf(cs...), issuer, seed, RefineConfig{Samples: 600})
		requireBrute(t, "fuzz/adaptive", pointsOf(cs...), issuer, seed, RefineConfig{
			Samples: 3 * 4 * 64, Block: 64, RoundBlocks: 4, Threshold: 0.2, Adaptive: true,
		})
		requireBrute(t, "fuzz/threshold", pointsOf(cs...), issuer, seed, RefineConfig{
			Samples: chunkSamples + 3*64, Block: 64, Threshold: 0.05 + float64(mode%4)/8,
		})
	})
}

// denseFixture is the end-to-end benchmark's NN shape (benchmark/,
// nn_ro): the candidates the MinDist/MaxDist bound keeps around a
// 500×500 issuer centred on a point of the clustered California
// stand-in — the first such issuer, walking the points in order, that
// keeps about the 1 300 candidates nn_ro averages.
func denseFixture(tb testing.TB) ([]uncertain.PointObject, pdf.PDF) {
	tb.Helper()
	pts := dataset.GeneratePoints(dataset.CaliforniaConfig())
	objs := make([]uncertain.PointObject, len(pts))
	for i, p := range pts {
		objs[i] = uncertain.PointObject{ID: uncertain.ID(i), Loc: p}
	}
	for _, c := range pts {
		u0 := geom.RectCentered(c, 250, 250)
		if cands := prune(objs, u0); len(cands) >= 1250 && len(cands) <= 1350 {
			return cands, pdf.MustUniform(u0)
		}
	}
	tb.Fatal("no issuer with ~1300 candidates")
	return nil, nil
}

var sinkProbs []float64

// BenchmarkRefineDense times Refine at the nn_ro shape: the default
// 1 000-sample stream (one round, no retirement), and a 16 384-sample
// threshold run in which candidates retire between rounds.
func BenchmarkRefineDense(b *testing.B) {
	cands, issuer := denseFixture(b)
	for _, bc := range []struct {
		name string
		cfg  RefineConfig
	}{
		{"samples=1000", RefineConfig{Samples: 1000, Threshold: 0.1, Adaptive: true}},
		{"samples=16384", RefineConfig{Samples: 16384, Threshold: 0.1, Adaptive: true}},
		{"k-only", RefineConfig{Samples: 1000}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				probs, _, err := Refine(cands, issuer, int64(i), bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				sinkProbs = probs
			}
		})
	}
}

// TestRefineAllocationBudget pins what one Refine call at the nn_ro
// shape allocates once its kernel is pooled: the probabilities and the
// Decided flags it returns, nothing per candidate, block or sample.
func TestRefineAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled kernels at random under the race detector")
	}
	const (
		rounds      = 16
		bytesBudget = 64 // measured 0 for 1 300 candidates into a kept RefineOutput (11 540 when the probabilities and Decided flags were allocated per call; 113 000 with a kernel, a grid and a generator per block built per call)
		allocBudget = 0  // measured 0 (2; 31)
	)
	cands, issuer := denseFixture(t)
	cfg := RefineConfig{Samples: 1000, Threshold: 0.1, Adaptive: true, Out: new(RefineOutput)}
	run := func(i int) {
		if _, _, err := Refine(cands, issuer, int64(i), cfg); err != nil {
			t.Fatal(err)
		}
	}
	run(0) // warm the kernel pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range rounds {
		run(i)
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	allocsPer := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("per Refine call: %.0f B, %.1f allocs", bytesPer, allocsPer)
	if bytesPer > bytesBudget {
		t.Errorf("Refine = %.0f B/call, budget %d", bytesPer, bytesBudget)
	}
	if allocsPer > allocBudget {
		t.Errorf("Refine = %.1f allocs/call, budget %d", allocsPer, allocBudget)
	}
}

// TestNeedWins holds needWins to its definition — the least w with
// float64(w)/samples >= qp, or samples+1 — by a scan over every w, at
// thresholds a tally hits exactly and at their float neighbours.
func TestNeedWins(t *testing.T) {
	for _, samples := range []int{1, 2, 3, 7, 1000, 1024, 1500, 16384} {
		for _, base := range []float64{0.001, 0.005, 0.02, 0.1, 0.25, 1.0 / 3, 0.5, 0.9, 1} {
			for _, qp := range []float64{base, math.Nextafter(base, 0), math.Nextafter(base, 2), 1.5, math.SmallestNonzeroFloat64} {
				want := int64(samples) + 1
				for w := 0; w <= samples; w++ {
					if float64(w)/float64(samples) >= qp {
						want = int64(w)
						break
					}
				}
				if got := needWins(qp, samples); got != want {
					t.Fatalf("needWins(%v, %d) = %d, want %d", qp, samples, got, want)
				}
			}
		}
	}
}
