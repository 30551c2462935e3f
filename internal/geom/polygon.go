package geom

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotConvex is returned by operations that require a convex input.
var ErrNotConvex = errors.New("geom: polygon is not convex")

// Polygon is a simple polygon given by its vertices in counterclockwise
// order. Most operations in this package additionally require
// convexity; IsConvexCCW checks it.
//
// Polygons back the paper's future-work extension ("queries and
// uncertain regions with non-rectangular shapes", §7) and serve as an
// independent general implementation against which the rectangle fast
// paths are property-tested.
type Polygon []Point

// IsConvexCCW reports whether p is convex with vertices in strictly
// counterclockwise order (collinear runs are allowed).
func (p Polygon) IsConvexCCW() bool {
	n := len(p)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		a, b, c := p[i], p[(i+1)%n], p[(i+2)%n]
		if b.Sub(a).Cross(c.Sub(b)) < -Eps {
			return false
		}
	}
	return true
}

// Area returns the signed area of p (positive for counterclockwise
// orientation) computed with the shoelace formula.
func (p Polygon) Area() float64 {
	n := len(p)
	if n < 3 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += p[i].X*p[j].Y - p[j].X*p[i].Y
	}
	return sum / 2
}

// Bounds returns the bounding rectangle of p. An empty polygon yields
// an Empty rectangle.
func (p Polygon) Bounds() Rect {
	if len(p) == 0 {
		return Rect{Lo: Point{1, 1}, Hi: Point{-1, -1}}
	}
	r := RectAt(p[0])
	for _, v := range p[1:] {
		r = r.UnionPoint(v)
	}
	return r
}

// Contains reports whether q lies inside or on the boundary of the
// convex polygon p.
func (p Polygon) Contains(q Point) bool {
	n := len(p)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		a, b := p[i], p[(i+1)%n]
		if b.Sub(a).Cross(q.Sub(a)) < -Eps {
			return false
		}
	}
	return true
}

// ClipToRect returns the intersection of the convex polygon p with the
// rectangle r using Sutherland–Hodgman clipping. The result is convex
// (possibly empty).
func (p Polygon) ClipToRect(r Rect) Polygon {
	out := p
	// Clip successively against the four half-planes of r.
	out = clipHalfPlane(out, func(q Point) float64 { return q.X - r.Lo.X }) // x >= Lo.X
	out = clipHalfPlane(out, func(q Point) float64 { return r.Hi.X - q.X }) // x <= Hi.X
	out = clipHalfPlane(out, func(q Point) float64 { return q.Y - r.Lo.Y }) // y >= Lo.Y
	out = clipHalfPlane(out, func(q Point) float64 { return r.Hi.Y - q.Y }) // y <= Hi.Y
	return out
}

// clipHalfPlane keeps the part of poly where inside(q) >= 0.
// inside must be an affine function of the point so that edge/plane
// intersections can be found by linear interpolation.
func clipHalfPlane(poly Polygon, inside func(Point) float64) Polygon {
	n := len(poly)
	if n == 0 {
		return nil
	}
	out := make(Polygon, 0, n+4)
	for i := 0; i < n; i++ {
		cur, next := poly[i], poly[(i+1)%n]
		cIn, nIn := inside(cur), inside(next)
		if cIn >= 0 {
			out = append(out, cur)
		}
		if (cIn >= 0) != (nIn >= 0) {
			// The edge crosses the boundary; interpolate.
			t := cIn / (cIn - nIn)
			out = append(out, Point{
				X: cur.X + t*(next.X-cur.X),
				Y: cur.Y + t*(next.Y-cur.Y),
			})
		}
	}
	return out
}

// RegularPolygon returns a counterclockwise regular n-gon centered at c
// with circumradius rad, the building block for approximating circular
// uncertainty regions (paper §7 future work).
func RegularPolygon(c Point, rad float64, n int) Polygon {
	if n < 3 {
		n = 3
	}
	out := make(Polygon, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		out[i] = Point{c.X + rad*math.Cos(a), c.Y + rad*math.Sin(a)}
	}
	return out
}

// String implements fmt.Stringer.
func (p Polygon) String() string {
	return fmt.Sprintf("Polygon%v", []Point(p))
}
