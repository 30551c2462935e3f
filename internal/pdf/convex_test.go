package pdf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestConvexUniformRejectsBadInput(t *testing.T) {
	concave := geom.Polygon{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(2, 1), geom.Pt(4, 4), geom.Pt(0, 4)}
	if _, err := NewConvexUniform(concave); err == nil {
		t.Fatal("concave polygon accepted")
	}
	degenerate := geom.Polygon{geom.Pt(0, 0), geom.Pt(1, 0)}
	if _, err := NewConvexUniform(degenerate); err == nil {
		t.Fatal("degenerate polygon accepted")
	}
	if _, err := NewDisc(geom.Pt(0, 0), -1, 16); err == nil {
		t.Fatal("negative radius accepted")
	}
}

func TestConvexUniformTriangle(t *testing.T) {
	tri := geom.Polygon{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10)}
	c, err := NewConvexUniform(tri)
	if err != nil {
		t.Fatal(err)
	}
	// Total mass 1.
	if got := c.MassIn(c.Support()); !approx(got, 1, 1e-9) {
		t.Fatalf("total mass = %g", got)
	}
	// The square [0,5]^2 lies inside below the hypotenuse except the
	// corner above x+y=10 — which it doesn't reach, so mass = 25/50.
	if got := c.MassIn(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(5, 5)}); !approx(got, 0.5, 1e-9) {
		t.Fatalf("square mass = %g, want 0.5", got)
	}
	// Density: 1/50 inside, 0 outside.
	if got := c.At(geom.Pt(1, 1)); !approx(got, 0.02, 1e-12) {
		t.Fatalf("density inside = %g", got)
	}
	if got := c.At(geom.Pt(9, 9)); got != 0 {
		t.Fatalf("density outside = %g", got)
	}
}

func TestConvexUniformMatchesRectUniform(t *testing.T) {
	// A rectangle-shaped convex polygon must agree with the rectangle
	// uniform pdf everywhere.
	region := geom.Rect{Lo: geom.Pt(10, 20), Hi: geom.Pt(110, 90)}
	c, err := NewConvexUniform(region.ToPolygon())
	if err != nil {
		t.Fatal(err)
	}
	u := MustUniform(region)
	rng := rand.New(rand.NewSource(201))
	for i := 0; i < 300; i++ {
		a := geom.Pt(rng.Float64()*150, rng.Float64()*150)
		b := geom.Pt(rng.Float64()*150, rng.Float64()*150)
		r := geom.RectFromCorners(a, b)
		if !approx(c.MassIn(r), u.MassIn(r), 1e-9) {
			t.Fatalf("rect %v: convex %g vs uniform %g", r, c.MassIn(r), u.MassIn(r))
		}
	}
}

func TestDiscMass(t *testing.T) {
	d, err := NewDisc(geom.Pt(0, 0), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	// A quadrant holds a quarter of the mass by symmetry.
	quad := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(20, 20)}
	if got := d.MassIn(quad); !approx(got, 0.25, 1e-9) {
		t.Fatalf("quadrant mass = %g, want 0.25", got)
	}
	// A central band [-5,5] x R: exact disc value is
	// (2/pi)(asin(1/2) + (1/2)·sqrt(3)/2) ≈ 0.6090; a 64-gon is close.
	band := geom.Rect{Lo: geom.Pt(-5, -20), Hi: geom.Pt(5, 20)}
	want := (2 / math.Pi) * (math.Asin(0.5) + 0.5*math.Sqrt(3)/2)
	if got := d.MassIn(band); math.Abs(got-want) > 0.005 {
		t.Fatalf("band mass = %g, want ~%g", got, want)
	}
}

func TestConvexUniformSampling(t *testing.T) {
	poly := geom.RegularPolygon(geom.Pt(50, 50), 20, 6)
	hex, err := NewConvexUniform(poly)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(202))
	probe := geom.Rect{Lo: geom.Pt(40, 40), Hi: geom.Pt(60, 65)}
	var hits int
	const n = 30000
	for i := 0; i < n; i++ {
		p := hex.Sample(rng)
		if !poly.Contains(p) {
			t.Fatal("sample outside polygon")
		}
		if probe.Contains(p) {
			hits++
		}
	}
	emp := float64(hits) / n
	if want := hex.MassIn(probe); math.Abs(emp-want) > 0.015 {
		t.Fatalf("empirical %g vs analytic %g", emp, want)
	}
}

func TestPropConvexMassAdditive(t *testing.T) {
	d, err := NewDisc(geom.Pt(0, 0), 30, 32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(203))
	f := func() bool {
		x := -30 + rng.Float64()*60
		left := geom.Rect{Lo: geom.Pt(-40, -40), Hi: geom.Pt(x, 40)}
		right := geom.Rect{Lo: geom.Pt(x, -40), Hi: geom.Pt(40, 40)}
		return approx(d.MassIn(left)+d.MassIn(right), 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropConvexMassMonotone(t *testing.T) {
	d, err := NewDisc(geom.Pt(5, 5), 25, 24)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(204))
	f := func() bool {
		a := geom.Pt(rng.Float64()*60-25, rng.Float64()*60-25)
		b := geom.Pt(rng.Float64()*60-25, rng.Float64()*60-25)
		inner := geom.RectFromCorners(a, b)
		outer := inner.Expand(rng.Float64()*10, rng.Float64()*10)
		return d.MassIn(inner) <= d.MassIn(outer)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
