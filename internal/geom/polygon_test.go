package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// MinkowskiSumConvex computes p ⊕ q for convex counterclockwise
// polygons — the general form the rectangle Minkowski sum (Rect.
// MinkowskiSum, ExpandedQuery) is checked against — using the classic
// edge-merge algorithm: the edges of the sum
// are the edges of both polygons merged by polar angle, so the result
// has at most len(p)+len(q) vertices and is computed in linear time
// after locating the bottom-most starting vertices (paper §4.1,
// footnote 1: "a convex polygon with at most m+e edges, O(m+e) time").
func MinkowskiSumConvex(p, q Polygon) (Polygon, error) {
	if !p.IsConvexCCW() || !q.IsConvexCCW() {
		return nil, ErrNotConvex
	}
	p = rotateToLowest(p)
	q = rotateToLowest(q)
	np, nq := len(p), len(q)
	result := make(Polygon, 0, np+nq)
	i, j := 0, 0
	for i < np || j < nq {
		result = append(result, Point{p[i%np].X + q[j%nq].X, p[i%np].Y + q[j%nq].Y})
		ep := p[(i+1)%np].Sub(p[i%np])
		eq := q[(j+1)%nq].Sub(q[j%nq])
		cross := ep.Cross(eq)
		switch {
		case i >= np:
			j++
		case j >= nq:
			i++
		case cross > Eps:
			i++
		case cross < -Eps:
			j++
		default: // parallel edges: advance both
			i++
			j++
		}
	}
	return dedupe(result), nil
}

// rotateToLowest rotates the vertex slice so that the lexicographically
// lowest (y, then x) vertex comes first, the canonical start for the
// Minkowski edge merge.
func rotateToLowest(p Polygon) Polygon {
	best := 0
	for i := 1; i < len(p); i++ {
		if p[i].Y < p[best].Y || (p[i].Y == p[best].Y && p[i].X < p[best].X) {
			best = i
		}
	}
	out := make(Polygon, 0, len(p))
	out = append(out, p[best:]...)
	out = append(out, p[:best]...)
	return out
}

// dedupe removes consecutive (approximately) duplicate vertices.
func dedupe(p Polygon) Polygon {
	if len(p) < 2 {
		return p
	}
	out := p[:1]
	for _, v := range p[1:] {
		if !v.ApproxEqual(out[len(out)-1]) {
			out = append(out, v)
		}
	}
	if len(out) > 1 && out[0].ApproxEqual(out[len(out)-1]) {
		out = out[:len(out)-1]
	}
	return out
}

func TestPolygonAreaSquare(t *testing.T) {
	sq := Rect{Lo: Pt(0, 0), Hi: Pt(2, 2)}.ToPolygon()
	if got := sq.Area(); !ApproxEqual(got, 4) {
		t.Fatalf("square area = %g, want 4", got)
	}
	if !sq.IsConvexCCW() {
		t.Fatal("rectangle polygon should be convex CCW")
	}
}

func TestPolygonAreaTriangle(t *testing.T) {
	tri := Polygon{Pt(0, 0), Pt(4, 0), Pt(0, 3)}
	if got := tri.Area(); !ApproxEqual(got, 6) {
		t.Fatalf("triangle area = %g, want 6", got)
	}
	// Clockwise orientation gives negative area.
	cw := Polygon{Pt(0, 0), Pt(0, 3), Pt(4, 0)}
	if got := cw.Area(); !ApproxEqual(got, -6) {
		t.Fatalf("cw triangle area = %g, want -6", got)
	}
}

func TestPolygonContains(t *testing.T) {
	tri := Polygon{Pt(0, 0), Pt(4, 0), Pt(0, 4)}
	if !tri.Contains(Pt(1, 1)) {
		t.Fatal("interior point not contained")
	}
	if !tri.Contains(Pt(2, 2)) {
		t.Fatal("boundary point not contained")
	}
	if tri.Contains(Pt(3, 3)) {
		t.Fatal("exterior point contained")
	}
}

func TestClipToRect(t *testing.T) {
	tri := Polygon{Pt(0, 0), Pt(10, 0), Pt(0, 10)}
	clipped := tri.ClipToRect(Rect{Lo: Pt(0, 0), Hi: Pt(5, 5)})
	// The clipped shape is the 5x5 square minus the triangle above the
	// hypotenuse x+y=10, which does not cut the square; so it is the
	// square intersected with x+y<=10 -> the full 5x5 square... x+y<=10
	// holds everywhere on [0,5]^2, so the area is 25 minus nothing.
	if got := clipped.Area(); !ApproxEqual(got, 25) {
		t.Fatalf("clipped area = %g, want 25", got)
	}

	// Clip against a window that the hypotenuse does cut.
	clipped = tri.ClipToRect(Rect{Lo: Pt(0, 0), Hi: Pt(8, 8)})
	// Square [0,8]^2 cut by x+y<=10: removes the corner triangle with
	// legs 6 and 6 -> area 64 - 18 = 46.
	if got := clipped.Area(); !ApproxEqual(got, 46) {
		t.Fatalf("clipped area = %g, want 46", got)
	}

	// Fully outside window.
	clipped = tri.ClipToRect(Rect{Lo: Pt(20, 20), Hi: Pt(30, 30)})
	if len(clipped) != 0 {
		t.Fatalf("expected empty clip, got %v", clipped)
	}
}

func TestMinkowskiSumTriangles(t *testing.T) {
	a := Polygon{Pt(0, 0), Pt(2, 0), Pt(0, 2)}
	b := Polygon{Pt(0, 0), Pt(1, 0), Pt(0, 1)}
	sum, err := MinkowskiSumConvex(a, b)
	if err != nil {
		t.Fatalf("MinkowskiSumConvex: %v", err)
	}
	if !sum.IsConvexCCW() {
		t.Fatalf("sum not convex CCW: %v", sum)
	}
	// Known result: area(A⊕B) for similar triangles scaled 2 and 1 is
	// area of a triangle scaled by 3 = 9 * area(unit right triangle)
	// = 9 * 0.5 = 4.5.
	if got := sum.Area(); !ApproxEqual(got, 4.5) {
		t.Fatalf("sum area = %g, want 4.5", got)
	}
}

func TestMinkowskiSumNotConvex(t *testing.T) {
	concave := Polygon{Pt(0, 0), Pt(4, 0), Pt(2, 1), Pt(4, 4), Pt(0, 4)}
	square := Rect{Lo: Pt(0, 0), Hi: Pt(1, 1)}.ToPolygon()
	if _, err := MinkowskiSumConvex(concave, square); err == nil {
		t.Fatal("expected ErrNotConvex for concave input")
	}
}

func TestRegularPolygon(t *testing.T) {
	hex := RegularPolygon(Pt(0, 0), 1, 6)
	if len(hex) != 6 {
		t.Fatalf("hexagon has %d vertices", len(hex))
	}
	if !hex.IsConvexCCW() {
		t.Fatal("hexagon not convex CCW")
	}
	want := 3 * math.Sqrt(3) / 2 // area of unit-circumradius hexagon
	if got := hex.Area(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("hexagon area = %g, want %g", got, want)
	}
}

func TestPropClipAreaNeverGrows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		poly := RegularPolygon(Pt(rng.Float64()*20-10, rng.Float64()*20-10), 1+rng.Float64()*10, 3+rng.Intn(8))
		win := randRect(rng)
		clipped := poly.ClipToRect(win)
		a := clipped.Area()
		return a >= -Eps && a <= poly.Area()+1e-6 && a <= win.Area()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropClipRectEqualsIntersect(t *testing.T) {
	// Clipping one rectangle's polygon to another rectangle must yield
	// exactly the rectangle intersection area.
	rng := rand.New(rand.NewSource(8))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		if a.Area() == 0 {
			return true
		}
		clipped := a.ToPolygon().ClipToRect(b)
		return math.Abs(clipped.Area()-a.OverlapArea(b)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropMinkowskiAreaInequality(t *testing.T) {
	// area(A⊕B) >= area(A) + area(B) for convex bodies
	// (by the Brunn–Minkowski inequality, with equality only in
	// degenerate cases).
	rng := rand.New(rand.NewSource(9))
	f := func() bool {
		a := RegularPolygon(Pt(0, 0), 1+rng.Float64()*5, 3+rng.Intn(6))
		b := RegularPolygon(Pt(0, 0), 1+rng.Float64()*5, 3+rng.Intn(6))
		sum, err := MinkowskiSumConvex(a, b)
		if err != nil {
			return false
		}
		return sum.Area() >= a.Area()+b.Area()-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
