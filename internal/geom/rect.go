package geom

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidRect is returned by Rect.Validate for rectangles whose
// lower corner exceeds the upper corner on some axis.
var ErrInvalidRect = errors.New("geom: invalid rectangle (Lo > Hi)")

// Rect is a closed axis-parallel rectangle [Lo.X, Hi.X] x [Lo.Y, Hi.Y].
// It is the uncertainty-region and query-range representation used
// throughout the reproduction (paper §3.1 assumes axis-parallel
// rectangular uncertainty regions).
//
// The zero Rect is the degenerate rectangle at the origin.
type Rect struct {
	Lo, Hi Point
}

// RectFromCorners builds the minimal rectangle containing the two
// points, regardless of their ordering.
func RectFromCorners(a, b Point) Rect {
	return Rect{
		Lo: Point{minf(a.X, b.X), minf(a.Y, b.Y)},
		Hi: Point{maxf(a.X, b.X), maxf(a.Y, b.Y)},
	}
}

// RectCentered returns the rectangle centered at c with the given
// half-width and half-height. This is the paper's R(x, y) with
// half-width w and half-height h.
func RectCentered(c Point, halfW, halfH float64) Rect {
	return Rect{
		Lo: Point{c.X - halfW, c.Y - halfH},
		Hi: Point{c.X + halfW, c.Y + halfH},
	}
}

// RectAt returns the degenerate rectangle holding the single point p.
func RectAt(p Point) Rect { return Rect{p, p} }

// Validate returns ErrInvalidRect if r.Lo exceeds r.Hi on either axis.
func (r Rect) Validate() error {
	if r.Lo.X > r.Hi.X || r.Lo.Y > r.Hi.Y {
		return fmt.Errorf("%w: %v", ErrInvalidRect, r)
	}
	return nil
}

// Width returns the X extent of r.
func (r Rect) Width() float64 { return r.Hi.X - r.Lo.X }

// Height returns the Y extent of r.
func (r Rect) Height() float64 { return r.Hi.Y - r.Lo.Y }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// Area returns the area of r (0 for degenerate rectangles).
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Margin returns half the perimeter of r (the R*-tree "margin" metric),
// used by split heuristics.
func (r Rect) Margin() float64 { return r.Width() + r.Height() }

// Empty reports whether r is invalid (Lo > Hi on some axis). Degenerate
// but valid rectangles (zero width or height) are not empty.
func (r Rect) Empty() bool {
	return r.Lo.X > r.Hi.X || r.Lo.Y > r.Hi.Y
}

// Contains reports whether p lies in the closed rectangle r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Lo.X >= r.Lo.X && s.Hi.X <= r.Hi.X &&
		s.Lo.Y >= r.Lo.Y && s.Hi.Y <= r.Hi.Y
}

// Intersects reports whether r and s share at least one point
// (boundary contact counts, since rectangles are closed).
func (r Rect) Intersects(s Rect) bool {
	return r.Lo.X <= s.Hi.X && s.Lo.X <= r.Hi.X &&
		r.Lo.Y <= s.Hi.Y && s.Lo.Y <= r.Hi.Y
}

// Intersect returns the intersection of r and s. If they are disjoint
// the result is Empty.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		Lo: Point{maxf(r.Lo.X, s.Lo.X), maxf(r.Lo.Y, s.Lo.Y)},
		Hi: Point{minf(r.Hi.X, s.Hi.X), minf(r.Hi.Y, s.Hi.Y)},
	}
	return out
}

// OverlapArea returns the area of the intersection of r and s without
// materializing it. For the uniform-issuer fast path of Lemma 3 the
// qualification probability is OverlapArea(R(xi,yi), U0)/Area(U0).
func (r Rect) OverlapArea(s Rect) float64 {
	w := IntervalOverlap(r.Lo.X, r.Hi.X, s.Lo.X, s.Hi.X)
	if w == 0 {
		return 0
	}
	h := IntervalOverlap(r.Lo.Y, r.Hi.Y, s.Lo.Y, s.Hi.Y)
	return w * h
}

// Union returns the minimal rectangle covering both r and s.
// An Empty operand is treated as the identity.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		Lo: Point{minf(r.Lo.X, s.Lo.X), minf(r.Lo.Y, s.Lo.Y)},
		Hi: Point{maxf(r.Hi.X, s.Hi.X), maxf(r.Hi.Y, s.Hi.Y)},
	}
}

// UnionPoint returns the minimal rectangle covering r and p.
func (r Rect) UnionPoint(p Point) Rect {
	if r.Empty() {
		return RectAt(p)
	}
	return Rect{
		Lo: Point{minf(r.Lo.X, p.X), minf(r.Lo.Y, p.Y)},
		Hi: Point{maxf(r.Hi.X, p.X), maxf(r.Hi.Y, p.Y)},
	}
}

// Enlargement returns the area increase needed for r to cover s.
// It is the classic R-tree ChooseLeaf metric (Guttman 1984).
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// Expand returns r grown by dx on the left and right and dy on the top
// and bottom. Negative values shrink the rectangle; the result may be
// Empty if it shrinks past zero extent.
func (r Rect) Expand(dx, dy float64) Rect {
	return Rect{
		Lo: Point{r.Lo.X - dx, r.Lo.Y - dy},
		Hi: Point{r.Hi.X + dx, r.Hi.Y + dy},
	}
}

// MinkowskiSum returns r ⊕ s for axis-parallel rectangles. Following
// the paper's Figure 2, the sum of a query range with half-width w and
// half-height h centered anywhere in U0 is U0 extended by w on the left
// and right and by h on the top and bottom — here generalized to any
// two rectangles: the result spans the pairwise sums of the corners.
func (r Rect) MinkowskiSum(s Rect) Rect {
	return Rect{
		Lo: Point{r.Lo.X + s.Lo.X, r.Lo.Y + s.Lo.Y},
		Hi: Point{r.Hi.X + s.Hi.X, r.Hi.Y + s.Hi.Y},
	}
}

// ExpandedQuery returns the Minkowski sum U0 ⊕ R(0,0) where R is the
// centered query rectangle with the given half extents: U0 grown by
// halfW horizontally and halfH vertically. Lemma 1: an object disjoint
// from this region has zero qualification probability.
func ExpandedQuery(u0 Rect, halfW, halfH float64) Rect {
	return u0.Expand(halfW, halfH)
}

// Translate returns r shifted by v.
func (r Rect) Translate(v Vec) Rect {
	return Rect{Lo: r.Lo.Add(v), Hi: r.Hi.Add(v)}
}

// Corners returns the four corners of r in counterclockwise order
// starting from Lo.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Lo,
		{r.Hi.X, r.Lo.Y},
		r.Hi,
		{r.Lo.X, r.Hi.Y},
	}
}

// ToPolygon returns r as a counterclockwise convex polygon.
func (r Rect) ToPolygon() Polygon {
	c := r.Corners()
	return Polygon{c[0], c[1], c[2], c[3]}
}

// ApproxEqual reports whether r and s coincide within Eps per corner.
func (r Rect) ApproxEqual(s Rect) bool {
	return r.Lo.ApproxEqual(s.Lo) && r.Hi.ApproxEqual(s.Hi)
}

// MinDist returns the minimum Euclidean distance from p to r
// (0 if p is inside). Used by the nearest-neighbor extension.
func (r Rect) MinDist(p Point) float64 {
	dx := maxf(maxf(r.Lo.X-p.X, 0), p.X-r.Hi.X)
	dy := maxf(maxf(r.Lo.Y-p.Y, 0), p.Y-r.Hi.Y)
	return math.Hypot(dx, dy)
}

// MaxDist returns the maximum Euclidean distance from p to any point
// of r. Used by the nearest-neighbor extension for pruning.
func (r Rect) MaxDist(p Point) float64 {
	dx := maxf(math.Abs(p.X-r.Lo.X), math.Abs(p.X-r.Hi.X))
	dy := maxf(math.Abs(p.Y-r.Lo.Y), math.Abs(p.Y-r.Hi.Y))
	return math.Hypot(dx, dy)
}

// maxf is math.Max through the max builtin, which the compiler inlines
// (math.Max is an assembly call on amd64). The two differ only on a NaN
// operand: math.Max answers +Inf when the other operand is +Inf and its
// one canonical NaN otherwise, where the builtin answers a NaN whose
// bits follow its operands. maxf keeps math's answer, so every result
// is math.Max's bit for bit.
func maxf(x, y float64) float64 {
	m := max(x, y)
	if m != m {
		if x > math.MaxFloat64 || y > math.MaxFloat64 {
			return math.Inf(1)
		}
		return math.NaN()
	}
	return m
}

// minf is math.Min through the min builtin, as maxf is math.Max: on a
// NaN operand it answers -Inf when the other operand is -Inf and the
// canonical NaN otherwise.
func minf(x, y float64) float64 {
	m := min(x, y)
	if m != m {
		if x < -math.MaxFloat64 || y < -math.MaxFloat64 {
			return math.Inf(-1)
		}
		return math.NaN()
	}
	return m
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.Lo.X, r.Hi.X, r.Lo.Y, r.Hi.Y)
}
