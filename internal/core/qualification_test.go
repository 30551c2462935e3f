package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/pdf"
)

// ObjectQualificationBasic evaluates Equation 4 directly (§3.3): sample
// the issuer's position n times; at each position integrate the
// object's pdf over the overlap of its region with the range query
// (Equation 3, exact via MassIn); average. The cost is n rectangle-mass
// integrations per object regardless of how little of U0 matters,
// which is what Figure 8 shows losing to the enhanced method.
func ObjectQualificationBasic(issuer, obj pdf.PDF, w, h float64, n int, rng *rand.Rand) float64 {
	p, _, _ := objectQualificationBasicThreshold(issuer, obj, w, h, 0, n, rng)
	return p
}

// axisFactor computes the one-dimensional factor of Lemma 4 for one
// axis:
//
//	∫_a^b fObj(x) · g(x) dx,  g(x) = FIss(x+w) − FIss(x−w)
//
// where FIss is the issuer marginal's CDF. When FIss is piecewise
// linear, g is piecewise linear with breakpoints at the issuer CDF
// breakpoints shifted by ±w, and the integral is an exact sum of
// partial moments. Otherwise the factor is integrated by composite
// Gauss–Legendre between the same breakpoints (g has kinks there, so
// splitting preserves spectral accuracy).
//
// The engine's form lives on axisPlan (plan.go), which prepares the
// shifted breakpoints once per query; this reference form rebuilds
// them per call.
func axisFactor(objM, issM pdf.Marginal, a, b, w float64) float64 {
	ap := newAxisPlan(issM, w)
	sc := acquireScratch()
	defer releaseScratch(sc)
	return ap.factor(objM, a, b, sc)
}

// shiftedBreakpoints returns the sorted breakpoints {p±w} clipped to
// [a, b], with a and b included — the reference construction that
// axisPlan.cutsInto reproduces without per-candidate sorting.
func shiftedBreakpoints(points []float64, w, a, b float64) []float64 {
	cuts := make([]float64, 0, 2*len(points)+2)
	cuts = append(cuts, a, b)
	for _, p := range points {
		for _, x := range [2]float64{p - w, p + w} {
			if x > a && x < b {
				cuts = append(cuts, x)
			}
		}
	}
	sort.Float64s(cuts)
	return cuts
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mustGauss(t testing.TB, r geom.Rect) *pdf.Product {
	t.Helper()
	g, err := pdf.NewTruncGaussian(r, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPointQualificationUniformEquation6(t *testing.T) {
	// Uniform issuer: pi = Area(R(xi,yi) ∩ U0) / Area(U0) (Eq. 6).
	u0 := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}
	issuer := pdf.MustUniform(u0)
	w, h := 20.0, 10.0
	cases := []struct {
		s    geom.Point
		want float64
	}{
		// Query centered at (50,50): R = [30,70]x[40,60] fully inside U0.
		{geom.Pt(50, 50), (40.0 * 20.0) / 10000.0},
		// At the corner: R = [-20,20]x[-10,10] overlaps [0,20]x[0,10].
		{geom.Pt(0, 0), (20.0 * 10.0) / 10000.0},
		// Far outside: no overlap.
		{geom.Pt(200, 200), 0},
		// Just off the right edge: R = [90,130]x[40,60] overlaps 10x20.
		{geom.Pt(110, 50), (10.0 * 20.0) / 10000.0},
	}
	for _, c := range cases {
		if got := PointQualification(issuer, c.s, w, h); !approx(got, c.want, 1e-12) {
			t.Errorf("PointQualification(%v) = %g, want %g", c.s, got, c.want)
		}
	}
}

func TestPointQualificationMatchesBasic(t *testing.T) {
	// Lemma 3: duality equals the definitional Monte-Carlo estimate,
	// for every pdf family.
	u0 := geom.Rect{Lo: geom.Pt(100, 100), Hi: geom.Pt(300, 250)}
	gridW := make([]float64, 5*4)
	rng := rand.New(rand.NewSource(90))
	for i := range gridW {
		gridW[i] = rng.Float64()
	}
	grid, err := pdf.NewGrid(u0, 5, 4, gridW)
	if err != nil {
		t.Fatal(err)
	}
	issuers := map[string]pdf.PDF{
		"uniform":  pdf.MustUniform(u0),
		"gaussian": mustGauss(t, u0),
		"grid":     grid,
	}
	w, h := 60.0, 40.0
	for name, issuer := range issuers {
		for i := 0; i < 10; i++ {
			s := geom.Pt(50+rng.Float64()*300, 50+rng.Float64()*250)
			exact := PointQualification(issuer, s, w, h)
			mc := PointQualificationBasic(issuer, s, w, h, 60000, rng)
			if !approx(exact, mc, 0.012) {
				t.Errorf("%s: point %v: duality %g vs basic MC %g", name, s, exact, mc)
			}
		}
	}
}

func TestPointQualificationPreciseIssuer(t *testing.T) {
	// Degenerate U0 (precise issuer): the query reduces to an ordinary
	// range query — probability is 0 or 1.
	issuer := pdf.MustUniform(geom.RectAt(geom.Pt(50, 50)))
	if got := PointQualification(issuer, geom.Pt(55, 52), 10, 5); got != 1 {
		t.Fatalf("inside: %g, want 1", got)
	}
	if got := PointQualification(issuer, geom.Pt(70, 50), 10, 5); got != 0 {
		t.Fatalf("outside: %g, want 0", got)
	}
	// Boundary (closed rectangle): contained.
	if got := PointQualification(issuer, geom.Pt(60, 55), 10, 5); got != 1 {
		t.Fatalf("boundary: %g, want 1", got)
	}
}

func TestObjectQualificationClosedFormVsMC(t *testing.T) {
	// Lemma 4 closed form against Monte-Carlo, for separable pairs.
	u0 := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 80)}
	rng := rand.New(rand.NewSource(91))
	issuers := map[string]pdf.PDF{
		"uniform-issuer":  pdf.MustUniform(u0),
		"gaussian-issuer": mustGauss(t, u0),
	}
	for issName, issuer := range issuers {
		for trial := 0; trial < 8; trial++ {
			c := geom.Pt(rng.Float64()*160-30, rng.Float64()*140-30)
			region := geom.RectCentered(c, 5+rng.Float64()*30, 5+rng.Float64()*30)
			objs := map[string]pdf.PDF{
				"uniform-obj":  pdf.MustUniform(region),
				"gaussian-obj": mustGauss(t, region),
			}
			w, h := 10+rng.Float64()*40, 10+rng.Float64()*40
			for objName, obj := range objs {
				exact := ObjectQualification(issuer, obj, w, h, ObjectEvalConfig{}, nil)
				mc := ObjectQualification(issuer, obj, w, h, ObjectEvalConfig{
					ForceMonteCarlo: true,
					MCSamples:       60000,
				}, rng)
				if !approx(exact, mc, 0.012) {
					t.Errorf("%s/%s trial %d: closed form %g vs MC %g (w=%g h=%g region=%v)",
						issName, objName, trial, exact, mc, w, h, region)
				}
			}
		}
	}
}

func TestObjectQualificationMatchesBasic(t *testing.T) {
	// Lemma 4 equals the definitional Equation 4 estimate.
	u0 := geom.Rect{Lo: geom.Pt(200, 200), Hi: geom.Pt(400, 380)}
	issuer := pdf.MustUniform(u0)
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 10; trial++ {
		c := geom.Pt(150+rng.Float64()*300, 150+rng.Float64()*300)
		obj := pdf.MustUniform(geom.RectCentered(c, 10+rng.Float64()*40, 10+rng.Float64()*40))
		w, h := 30+rng.Float64()*80, 30+rng.Float64()*80
		exact := ObjectQualification(issuer, obj, w, h, ObjectEvalConfig{}, nil)
		basic := ObjectQualificationBasic(issuer, obj, w, h, 60000, rng)
		if !approx(exact, basic, 0.012) {
			t.Errorf("trial %d: enhanced %g vs basic %g", trial, exact, basic)
		}
	}
}

func TestObjectQualificationNonSeparable(t *testing.T) {
	// Grid (non-separable) object: MC path against the definitional
	// basic method.
	u0 := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(60, 60)}
	issuer := pdf.MustUniform(u0)
	region := geom.Rect{Lo: geom.Pt(30, 30), Hi: geom.Pt(90, 90)}
	weights := make([]float64, 6*6)
	for i := 0; i < 6; i++ {
		weights[i*6+i] = 1 // diagonal mass
	}
	obj, err := pdf.NewGrid(region, 6, 6, weights)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(93))
	w, h := 25.0, 25.0
	got := ObjectQualification(issuer, obj, w, h, ObjectEvalConfig{MCSamples: 80000}, rng)
	want := ObjectQualificationBasic(issuer, obj, w, h, 80000, rng)
	if !approx(got, want, 0.012) {
		t.Fatalf("grid object: MC %g vs basic %g", got, want)
	}
}

func TestObjectQualificationDisjointIsZero(t *testing.T) {
	// Lemma 1: an object whose region misses R⊕U0 has pi = 0.
	issuer := pdf.MustUniform(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10, 10)})
	obj := pdf.MustUniform(geom.Rect{Lo: geom.Pt(100, 100), Hi: geom.Pt(110, 110)})
	if got := ObjectQualification(issuer, obj, 5, 5, ObjectEvalConfig{}, nil); got != 0 {
		t.Fatalf("disjoint object: %g, want 0", got)
	}
}

func TestObjectQualificationFullyCoveredIsOne(t *testing.T) {
	// An object so close that every issuer position's query contains
	// the whole uncertainty region: pi = 1.
	issuer := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 1, 1))
	obj := pdf.MustUniform(geom.RectCentered(geom.Pt(0, 0), 1, 1))
	// Query so large that R(x,y) covers obj for every (x,y) in U0.
	if got := ObjectQualification(issuer, obj, 100, 100, ObjectEvalConfig{}, nil); !approx(got, 1, 1e-9) {
		t.Fatalf("covered object: %g, want 1", got)
	}
}

func TestPropDualityKernelZeroOutsideExpansion(t *testing.T) {
	// Lemma 1 seen through the kernel: Q vanishes outside R⊕U0.
	rng := rand.New(rand.NewSource(94))
	u0 := geom.Rect{Lo: geom.Pt(20, 30), Hi: geom.Pt(120, 90)}
	issuer := pdf.MustUniform(u0)
	w, h := 15.0, 25.0
	kernel := DualityKernel(issuer, w, h)
	expanded := geom.ExpandedQuery(u0, w, h)
	f := func() bool {
		p := geom.Pt(rng.Float64()*400-100, rng.Float64()*400-100)
		q := kernel(p)
		if !expanded.Contains(p) {
			return q == 0
		}
		return q >= 0 && q <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropObjectQualificationMonotoneInRange(t *testing.T) {
	// Bigger query rectangles can only increase qualification.
	rng := rand.New(rand.NewSource(95))
	u0 := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(80, 80)}
	issuer := pdf.MustUniform(u0)
	f := func() bool {
		c := geom.Pt(rng.Float64()*200-60, rng.Float64()*200-60)
		obj := pdf.MustUniform(geom.RectCentered(c, 5+rng.Float64()*20, 5+rng.Float64()*20))
		w := 5 + rng.Float64()*30
		h := 5 + rng.Float64()*30
		small := ObjectQualification(issuer, obj, w, h, ObjectEvalConfig{}, nil)
		big := ObjectQualification(issuer, obj, w*1.5, h*1.5, ObjectEvalConfig{}, nil)
		return big >= small-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropPointQualificationSymmetricDuality(t *testing.T) {
	// Lemma 2 (query-data duality): with two point-like parties the
	// relation is symmetric. Model the issuer as a degenerate pdf at
	// s1 and the object at s2, and vice versa.
	rng := rand.New(rand.NewSource(96))
	f := func() bool {
		s1 := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		s2 := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		w := rng.Float64() * 40
		h := rng.Float64() * 40
		if w == 0 || h == 0 {
			return true
		}
		p12 := PointQualification(pdf.MustUniform(geom.RectAt(s1)), s2, w, h)
		p21 := PointQualification(pdf.MustUniform(geom.RectAt(s2)), s1, w, h)
		return p12 == p21
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAxisFactorAgainstDirectIntegration(t *testing.T) {
	// The 1D closed-form factor against brute-force numeric
	// integration for a histogram-issuer (piecewise-linear CDF) and a
	// Gaussian object marginal.
	iss, err := pdf.NewHistogramMarginal([]float64{0, 10, 15, 40}, []float64{2, 5, 3})
	if err != nil {
		t.Fatal(err)
	}
	obj, err := pdf.NewTruncNormalMarginal(-10, 60, 20, 12)
	if err != nil {
		t.Fatal(err)
	}
	w := 8.0
	a, b := -5.0, 55.0
	got := axisFactor(obj, iss, a, b, w)
	// Trapezoid reference.
	const n = 400000
	var want float64
	hstep := (b - a) / n
	for i := 0; i <= n; i++ {
		x := a + float64(i)*hstep
		wt := hstep
		if i == 0 || i == n {
			wt = hstep / 2
		}
		want += wt * obj.At(x) * (iss.CDF(x+w) - iss.CDF(x-w))
	}
	if !approx(got, want, 1e-6) {
		t.Fatalf("axisFactor = %.9f, reference = %.9f", got, want)
	}
}

func TestShiftedBreakpoints(t *testing.T) {
	cuts := shiftedBreakpoints([]float64{0, 10}, 3, -5, 20)
	want := []float64{-5, -3, 3, 7, 13, 20}
	if len(cuts) != len(want) {
		t.Fatalf("cuts = %v, want %v", cuts, want)
	}
	for i := range cuts {
		if !approx(cuts[i], want[i], 1e-12) {
			t.Fatalf("cuts = %v, want %v", cuts, want)
		}
	}
}

func TestAxisFactorDegenerateIssuer(t *testing.T) {
	// Regression: a point-mass issuer marginal makes the duality
	// kernel g a step function; the closed-form path must not
	// interpolate across the jump (which once halved probabilities).
	iss, err := pdf.NewUniformMarginal(50, 50) // point mass at 50
	if err != nil {
		t.Fatal(err)
	}
	obj, err := pdf.NewUniformMarginal(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	w := 10.0
	// g(x) = 1 exactly when |x-50| <= w; the object marginal holds
	// mass 20/100 there.
	got := axisFactor(obj, iss, 0, 100, w)
	if !approx(got, 0.2, 1e-9) {
		t.Fatalf("degenerate-issuer axis factor = %g, want 0.2", got)
	}
	// Full engine-level check via ObjectQualification: issuer precise
	// at (50,50), object uniform on [0,100]^2, query half extents 10:
	// p = (20/100)^2 = 0.04.
	issuer := pdf.MustUniform(geom.RectAt(geom.Pt(50, 50)))
	object := pdf.MustUniform(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)})
	p := ObjectQualification(issuer, object, w, w, ObjectEvalConfig{}, nil)
	if !approx(p, 0.04, 1e-9) {
		t.Fatalf("precise-issuer object qualification = %g, want 0.04", p)
	}
}
