package uncertain

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/pdf"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDefaultCatalogProbs(t *testing.T) {
	probs := DefaultCatalogProbs(10)
	if len(probs) != 11 || probs[0] != 0 || probs[10] != 1 || probs[5] != 0.5 {
		t.Fatalf("DefaultCatalogProbs(10) = %v", probs)
	}
	if got := DefaultCatalogProbs(0); len(got) != 2 {
		t.Fatalf("DefaultCatalogProbs(0) = %v, want clamped to n=1", got)
	}
	paper := PaperCatalogProbs()
	if len(paper) != 10 || paper[0] != 0 || !approx(paper[9], 0.9, 1e-12) {
		t.Fatalf("PaperCatalogProbs = %v", paper)
	}
}

func TestComputeBoundUniform(t *testing.T) {
	region := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 50)}
	u := pdf.MustUniform(region)
	b := ComputeBound(u, 0.2)
	if !approx(b.Left, 20, 1e-9) || !approx(b.Right, 80, 1e-9) {
		t.Fatalf("uniform x-bounds = (%g, %g), want (20, 80)", b.Left, b.Right)
	}
	if !approx(b.Bottom, 10, 1e-9) || !approx(b.Top, 40, 1e-9) {
		t.Fatalf("uniform y-bounds = (%g, %g), want (10, 40)", b.Bottom, b.Top)
	}
	// The 0-bound is the region boundary (paper: boundary of Ui is
	// l(0), r(0), t(0), b(0)).
	b0 := ComputeBound(u, 0)
	if inner := (geom.Rect{Lo: geom.Pt(b0.Left, b0.Bottom), Hi: geom.Pt(b0.Right, b0.Top)}); !inner.ApproxEqual(region) {
		t.Fatalf("0-bound = %v, want region %v", inner, region)
	}
}

func TestComputeBoundGaussianSymmetry(t *testing.T) {
	region := geom.Rect{Lo: geom.Pt(-30, -30), Hi: geom.Pt(30, 30)}
	g, err := pdf.NewTruncGaussian(region, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := ComputeBound(g, 0.25)
	if !approx(b.Left, -b.Right, 1e-9) || !approx(b.Bottom, -b.Top, 1e-9) {
		t.Fatalf("Gaussian bound not symmetric: %+v", b)
	}
	// Gaussian concentrates mass centrally, so its 0.25-bound is
	// strictly tighter than the uniform's.
	ub := ComputeBound(pdf.MustUniform(region), 0.25)
	if b.Left <= ub.Left || b.Right >= ub.Right {
		t.Fatalf("Gaussian 0.25-bound %+v not tighter than uniform %+v", b, ub)
	}
}

func TestComputeBoundNonSeparableBisection(t *testing.T) {
	// A diagonal grid pdf is non-separable, forcing the bisection path.
	region := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10, 10)}
	weights := make([]float64, 4*4)
	for i := 0; i < 4; i++ {
		weights[i*4+i] = 1 // mass on the diagonal cells
	}
	g, err := pdf.NewGrid(region, 4, 4, weights)
	if err != nil {
		t.Fatal(err)
	}
	b := ComputeBound(g, 0.25)
	// Each diagonal cell holds mass 1/4, so mass left of x=2.5 is 1/4.
	if !approx(b.Left, 2.5, 1e-6) {
		t.Fatalf("grid Left = %g, want 2.5", b.Left)
	}
	if !approx(b.Right, 7.5, 1e-6) {
		t.Fatalf("grid Right = %g, want 7.5", b.Right)
	}
	// Verify the defining property directly: mass left of Left is p.
	sup := g.Support()
	mass := g.MassIn(geom.Rect{Lo: sup.Lo, Hi: geom.Pt(b.Left, sup.Hi.Y)})
	if !approx(mass, 0.25, 1e-6) {
		t.Fatalf("mass left of Left = %g, want 0.25", mass)
	}
}

func TestNewCatalogSortedAndDeduped(t *testing.T) {
	u := pdf.MustUniform(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10, 10)})
	cat, err := NewCatalog(u, []float64{0.5, 0, 0.2, 0.2, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	bounds := cat.Bounds()
	if len(bounds) != 4 {
		t.Fatalf("catalog has %d rows, want 4 (deduped)", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i].P <= bounds[i-1].P {
			t.Fatal("catalog not sorted ascending")
		}
	}
}

func TestNewCatalogRejectsBadProbs(t *testing.T) {
	u := pdf.MustUniform(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10, 10)})
	if _, err := NewCatalog(u, []float64{-0.1}); err == nil {
		t.Fatal("negative probability accepted")
	}
	if _, err := NewCatalog(u, []float64{1.5}); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if _, err := NewCatalog(nil, []float64{0.5}); err == nil {
		t.Fatal("nil pdf accepted")
	}
}

func TestCatalogLookups(t *testing.T) {
	u := pdf.MustUniform(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10, 10)})
	cat, err := NewCatalog(u, []float64{0, 0.2, 0.4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := cat.MaxLE(0.5); !ok || b.P != 0.4 {
		t.Fatalf("MaxLE(0.5) = %+v, %t; want P=0.4", b, ok)
	}
	if b, ok := cat.MaxLE(0.2); !ok || b.P != 0.2 {
		t.Fatalf("MaxLE(0.2) = %+v, %t; want exact hit P=0.2", b, ok)
	}
	if _, ok := cat.MaxLE(-0.01); ok {
		t.Fatal("MaxLE below all rows should miss")
	}
	var empty Catalog
	if _, ok := empty.MaxLE(0.5); ok {
		t.Fatal("empty catalog MaxLE should miss")
	}
	if empty.Len() != 0 {
		t.Fatal("empty catalog Len != 0")
	}
}

func TestNewObject(t *testing.T) {
	region := geom.Rect{Lo: geom.Pt(5, 5), Hi: geom.Pt(15, 25)}
	u := pdf.MustUniform(region)
	o, err := NewObject(42, u, PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	if o.ID != 42 {
		t.Fatalf("ID = %d", o.ID)
	}
	if !o.Region().ApproxEqual(region) {
		t.Fatalf("Region = %v, want %v", o.Region(), region)
	}
	if o.Catalog.Len() != 10 {
		t.Fatalf("catalog rows = %d, want 10", o.Catalog.Len())
	}
	if _, err := NewObject(1, nil, nil); err == nil {
		t.Fatal("nil pdf accepted")
	}
	// No catalog requested.
	o2, err := NewObject(2, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Catalog.Len() != 0 {
		t.Fatal("expected empty catalog")
	}
}

func TestPropBoundsMonotoneInP(t *testing.T) {
	// Higher p => tighter bound on every side (paper: pj >= pk iff the
	// pj-expanded-query is enclosed by the pk-expanded-query; here the
	// object-side analogue).
	region := geom.Rect{Lo: geom.Pt(-50, 10), Hi: geom.Pt(70, 90)}
	pdfs := []pdf.PDF{
		pdf.MustUniform(region),
		mustGauss(t, region),
	}
	rng := rand.New(rand.NewSource(31))
	for _, p := range pdfs {
		f := func() bool {
			p1 := rng.Float64() / 2 // keep within [0, 0.5] where sides stay ordered
			p2 := rng.Float64() / 2
			if p1 > p2 {
				p1, p2 = p2, p1
			}
			b1 := ComputeBound(p, p1)
			b2 := ComputeBound(p, p2)
			return b1.Left <= b2.Left+1e-9 && b1.Right >= b2.Right-1e-9 &&
				b1.Bottom <= b2.Bottom+1e-9 && b1.Top >= b2.Top-1e-9
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%T: %v", p, err)
		}
	}
}

func TestPropBoundDefiningProperty(t *testing.T) {
	// For any pdf and p, the mass left of Left (right of Right, ...)
	// equals p.
	region := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(200, 100)}
	g := mustGauss(t, region)
	rng := rand.New(rand.NewSource(32))
	f := func() bool {
		v := rng.Float64()
		b := ComputeBound(g, v)
		sup := g.Support()
		left := g.MassIn(geom.Rect{Lo: sup.Lo, Hi: geom.Pt(b.Left, sup.Hi.Y)})
		right := g.MassIn(geom.Rect{Lo: geom.Pt(b.Right, sup.Lo.Y), Hi: sup.Hi})
		below := g.MassIn(geom.Rect{Lo: sup.Lo, Hi: geom.Pt(sup.Hi.X, b.Bottom)})
		above := g.MassIn(geom.Rect{Lo: geom.Pt(sup.Lo.X, b.Top), Hi: sup.Hi})
		return approx(left, v, 1e-6) && approx(right, v, 1e-6) &&
			approx(below, v, 1e-6) && approx(above, v, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mustGauss(t *testing.T, r geom.Rect) pdf.PDF {
	t.Helper()
	g, err := pdf.NewTruncGaussian(r, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
