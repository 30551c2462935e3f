package pdf

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// pdfsUnderTest builds one of every pdf kind over (roughly) the same
// region for cross-implementation property tests.
func pdfsUnderTest(t *testing.T) map[string]PDF {
	t.Helper()
	region := geom.Rect{Lo: geom.Pt(100, 200), Hi: geom.Pt(300, 350)}

	uni, err := NewUniform(region)
	if err != nil {
		t.Fatal(err)
	}
	gauss, err := NewTruncGaussian(region, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, 8*6)
	rng := rand.New(rand.NewSource(99))
	for i := range weights {
		weights[i] = rng.Float64()
	}
	grid, err := NewGrid(region, 8, 6, weights)
	if err != nil {
		t.Fatal(err)
	}
	left := geom.Rect{Lo: geom.Pt(100, 200), Hi: geom.Pt(180, 350)}
	right := geom.Rect{Lo: geom.Pt(220, 200), Hi: geom.Pt(300, 350)}
	mix, err := NewMixture(
		[]PDF{MustUniform(left), MustUniform(right)},
		[]float64{1, 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]PDF{
		"uniform":  uni,
		"gaussian": gauss,
		"grid":     grid,
		"mixture":  mix,
	}
}

func TestTotalMassIsOne(t *testing.T) {
	for name, p := range pdfsUnderTest(t) {
		if got := p.MassIn(p.Support()); !approx(got, 1, 1e-9) {
			t.Errorf("%s: total mass = %g, want 1", name, got)
		}
		// A rectangle strictly containing the support also captures
		// all the mass.
		big := p.Support().Expand(1000, 1000)
		if got := p.MassIn(big); !approx(got, 1, 1e-9) {
			t.Errorf("%s: enclosing mass = %g, want 1", name, got)
		}
	}
}

func TestMassOutsideSupportIsZero(t *testing.T) {
	for name, p := range pdfsUnderTest(t) {
		s := p.Support()
		outside := geom.Rect{
			Lo: geom.Pt(s.Hi.X+10, s.Hi.Y+10),
			Hi: geom.Pt(s.Hi.X+100, s.Hi.Y+100),
		}
		if got := p.MassIn(outside); got != 0 {
			t.Errorf("%s: outside mass = %g, want 0", name, got)
		}
		if got := p.At(geom.Pt(s.Hi.X+1, s.Lo.Y)); got != 0 {
			t.Errorf("%s: outside density = %g, want 0", name, got)
		}
	}
}

func TestPropMassAdditiveOverSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for name, p := range pdfsUnderTest(t) {
		s := p.Support()
		f := func() bool {
			// Split the support at a random vertical line; the two
			// halves' masses must sum to 1.
			x := s.Lo.X + rng.Float64()*s.Width()
			left := geom.Rect{Lo: s.Lo, Hi: geom.Pt(x, s.Hi.Y)}
			right := geom.Rect{Lo: geom.Pt(x, s.Lo.Y), Hi: s.Hi}
			return approx(p.MassIn(left)+p.MassIn(right), 1, 1e-9)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPropMassMonotoneInRect(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for name, p := range pdfsUnderTest(t) {
		s := p.Support()
		f := func() bool {
			a := geom.Pt(s.Lo.X+rng.Float64()*s.Width(), s.Lo.Y+rng.Float64()*s.Height())
			b := geom.Pt(s.Lo.X+rng.Float64()*s.Width(), s.Lo.Y+rng.Float64()*s.Height())
			inner := geom.RectFromCorners(a, b)
			outer := inner.Expand(rng.Float64()*20, rng.Float64()*20)
			return p.MassIn(inner) <= p.MassIn(outer)+1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPropMassMatchesSampling(t *testing.T) {
	// Monte-Carlo agreement: the fraction of samples landing in a rect
	// approaches MassIn.
	rng := rand.New(rand.NewSource(23))
	const n = 30000
	for name, p := range pdfsUnderTest(t) {
		s := p.Support()
		probe := geom.Rect{
			Lo: geom.Pt(s.Lo.X+0.2*s.Width(), s.Lo.Y+0.3*s.Height()),
			Hi: geom.Pt(s.Lo.X+0.7*s.Width(), s.Lo.Y+0.9*s.Height()),
		}
		var hits int
		for i := 0; i < n; i++ {
			if probe.Contains(p.Sample(rng)) {
				hits++
			}
		}
		emp := float64(hits) / n
		if want := p.MassIn(probe); math.Abs(emp-want) > 0.015 {
			t.Errorf("%s: empirical mass %g vs analytic %g", name, emp, want)
		}
	}
}

func TestGaussianPeaksAtCenter(t *testing.T) {
	region := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(60, 60)}
	g, err := NewTruncGaussian(region, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := region.Center()
	if g.At(c) <= g.At(geom.Pt(5, 5)) {
		t.Fatal("Gaussian not peaked at center")
	}
	// Default sigma is one sixth of the extent (paper §6.2): almost all
	// mass concentrates near the center, so the central quarter-area
	// region holds much more than a uniform quarter would.
	centerBox := geom.RectCentered(c, 15, 15)
	if got := g.MassIn(centerBox); got < 0.7 {
		t.Fatalf("central box mass = %g, want > 0.7 for sigma = extent/6", got)
	}
}

func TestGaussianExplicitSigma(t *testing.T) {
	region := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(60, 60)}
	tight, err := NewTruncGaussian(region, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := NewTruncGaussian(region, 30, 30)
	if err != nil {
		t.Fatal(err)
	}
	probe := geom.RectCentered(region.Center(), 5, 5)
	if tight.MassIn(probe) <= loose.MassIn(probe) {
		t.Fatal("smaller sigma should concentrate more mass near the center")
	}
}

func TestGridAgainstUniform(t *testing.T) {
	// A grid with equal weights is the uniform pdf.
	region := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 50)}
	weights := make([]float64, 10*5)
	for i := range weights {
		weights[i] = 1
	}
	grid, err := NewGrid(region, 10, 5, weights)
	if err != nil {
		t.Fatal(err)
	}
	uni := MustUniform(region)
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 200; i++ {
		a := geom.Pt(rng.Float64()*120-10, rng.Float64()*70-10)
		b := geom.Pt(rng.Float64()*120-10, rng.Float64()*70-10)
		r := geom.RectFromCorners(a, b)
		if !approx(grid.MassIn(r), uni.MassIn(r), 1e-9) {
			t.Fatalf("grid mass %g != uniform mass %g on %v", grid.MassIn(r), uni.MassIn(r), r)
		}
	}
}

func TestMixtureMassSplits(t *testing.T) {
	left := MustUniform(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(1, 1)})
	right := MustUniform(geom.Rect{Lo: geom.Pt(10, 0), Hi: geom.Pt(11, 1)})
	mix, err := NewMixture([]PDF{left, right}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := mix.MassIn(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(5, 1)}); !approx(got, 0.25, 1e-12) {
		t.Fatalf("left component mass = %g, want 0.25", got)
	}
	if got := mix.MassIn(geom.Rect{Lo: geom.Pt(9, 0), Hi: geom.Pt(12, 1)}); !approx(got, 0.75, 1e-12) {
		t.Fatalf("right component mass = %g, want 0.75", got)
	}
}

func TestConstructorValidation(t *testing.T) {
	bad := geom.Rect{Lo: geom.Pt(1, 1), Hi: geom.Pt(0, 0)}
	if _, err := NewUniform(bad); err == nil {
		t.Error("NewUniform accepted invalid region")
	}
	if _, err := NewTruncGaussian(bad, 1, 1); err == nil {
		t.Error("NewTruncGaussian accepted invalid region")
	}
	if _, err := NewTruncGaussian(geom.RectAt(geom.Pt(1, 1)), 1, 1); err == nil {
		t.Error("NewTruncGaussian accepted degenerate region")
	}
	ok := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(1, 1)}
	if _, err := NewGrid(ok, 2, 2, []float64{1, 2, 3}); err == nil {
		t.Error("NewGrid accepted wrong weight count")
	}
	if _, err := NewGrid(ok, 0, 2, nil); err == nil {
		t.Error("NewGrid accepted zero dimension")
	}
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("NewMixture accepted empty component list")
	}
	if _, err := NewMixture([]PDF{MustUniform(ok)}, []float64{0}); err == nil {
		t.Error("NewMixture accepted zero total weight")
	}
}

// TestConstructorsRefuseNonFiniteSupport: every constructor refuses a
// support whose width or height is not finite — finite bounds whose
// difference overflows, an infinite bound, or a NaN — with
// ErrNonFiniteSupport, and accepts the widest support that still fits.
func TestConstructorsRefuseNonFiniteSupport(t *testing.T) {
	const big = 1e308
	supports := map[string]geom.Rect{
		"x overflows": {Lo: geom.Pt(-big, 0), Hi: geom.Pt(big, 1)},
		"y overflows": {Lo: geom.Pt(0, -big), Hi: geom.Pt(1, big)},
		"both":        {Lo: geom.Pt(-big, -big), Hi: geom.Pt(big, big)},
		"infinite":    {Lo: geom.Pt(0, 0), Hi: geom.Pt(math.Inf(1), 1)},
		"NaN":         {Lo: geom.Pt(math.NaN(), 0), Hi: geom.Pt(1, 1)},
	}
	quad := func(r geom.Rect) geom.Polygon {
		return geom.Polygon{r.Lo, geom.Pt(r.Hi.X, r.Lo.Y), r.Hi, geom.Pt(r.Lo.X, r.Hi.Y)}
	}
	constructors := map[string]func(geom.Rect) error{
		"NewUniformMarginal": func(r geom.Rect) error {
			if _, err := NewUniformMarginal(r.Lo.X, r.Hi.X); err != nil {
				return err
			}
			_, err := NewUniformMarginal(r.Lo.Y, r.Hi.Y)
			return err
		},
		"NewUniform":       func(r geom.Rect) error { _, err := NewUniform(r); return err },
		"NewTruncGaussian": func(r geom.Rect) error { _, err := NewTruncGaussian(r, 0, 0); return err },
		"NewGrid":          func(r geom.Rect) error { _, err := NewGrid(r, 2, 2, []float64{1, 2, 3, 4}); return err },
		"NewConvexUniform": func(r geom.Rect) error { _, err := NewConvexUniform(quad(r)); return err },
		"NewHistogramMarginal": func(r geom.Rect) error {
			_, err := NewHistogramMarginal([]float64{r.Lo.X, 0.5, r.Hi.X}, []float64{1, 1})
			return err
		},
	}
	for name, build := range constructors {
		for what, r := range supports {
			if name == "NewHistogramMarginal" && what == "y overflows" {
				continue // a histogram is one axis
			}
			err := build(r)
			if name == "NewConvexUniform" && what == "NaN" && err != nil {
				continue // the convexity test already refuses a NaN vertex
			}
			if !errors.Is(err, ErrNonFiniteSupport) {
				t.Errorf("%s over %s %v: error %v, want ErrNonFiniteSupport", name, what, r, err)
			}
		}
		// The widest support whose extent is still finite is accepted.
		if name == "NewConvexUniform" || name == "NewGrid" {
			continue // their area, big², overflows: see below
		}
		if err := build(geom.Rect{Lo: geom.Pt(-big/2, -big/2), Hi: geom.Pt(big/2, big/2)}); err != nil {
			t.Errorf("%s refused a finite support: %v", name, err)
		}
	}
	// A polygon or grid whose extents fit but whose area overflows has
	// no finite density either.
	wide := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(big, big)}
	if _, err := NewConvexUniform(quad(wide)); !errors.Is(err, ErrNonFiniteSupport) {
		t.Errorf("NewConvexUniform with area %g: error %v, want ErrNonFiniteSupport", quad(wide).Area(), err)
	}
	if _, err := NewGrid(wide, 2, 2, []float64{1, 2, 3, 4}); !errors.Is(err, ErrNonFiniteSupport) {
		t.Errorf("NewGrid with area %g: error %v, want ErrNonFiniteSupport", wide.Area(), err)
	}
	if err := CheckFiniteSupport(geom.Rect{Lo: geom.Pt(-big/2, 0), Hi: geom.Pt(big/2, 1)}); err != nil {
		t.Errorf("CheckFiniteSupport refused a finite support: %v", err)
	}
}

// The mass to the right of a vertical line x — the quantity the
// paper's r(p) line bounds — is MassIn of the half-plane right of x.
func TestMassAboveRight(t *testing.T) {
	p := MustUniform(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10, 10)})
	right := func(x float64) float64 {
		return p.MassIn(geom.Rect{Lo: geom.Pt(x, -1e9), Hi: geom.Pt(1e9, 1e9)})
	}
	if got := right(-5); got != 1 {
		t.Fatalf("left of support = %g, want 1", got)
	}
	if got := right(15); got != 0 {
		t.Fatalf("right of support = %g, want 0", got)
	}
	if got := right(7.5); !approx(got, 0.25, 1e-12) {
		t.Fatalf("mass right of 7.5 = %g, want 0.25", got)
	}
}

func TestProductMarginalsConsistent(t *testing.T) {
	region := geom.Rect{Lo: geom.Pt(-10, 5), Hi: geom.Pt(30, 45)}
	for _, p := range []*Product{
		MustUniform(region),
		mustGaussian(t, region),
	} {
		mx, my := p.MarginalX(), p.MarginalY()
		// Density factorizes.
		pt := geom.Pt(3, 20)
		if !approx(p.At(pt), mx.At(pt.X)*my.At(pt.Y), 1e-12) {
			t.Errorf("density does not factor at %v", pt)
		}
		// MassIn factorizes into CDF differences.
		r := geom.Rect{Lo: geom.Pt(-2, 10), Hi: geom.Pt(12, 30)}
		want := (mx.CDF(r.Hi.X) - mx.CDF(r.Lo.X)) * (my.CDF(r.Hi.Y) - my.CDF(r.Lo.Y))
		if !approx(p.MassIn(r), want, 1e-9) {
			t.Errorf("MassIn %g != marginal product %g", p.MassIn(r), want)
		}
	}
}

func mustGaussian(t *testing.T, r geom.Rect) *Product {
	t.Helper()
	g, err := NewTruncGaussian(r, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
