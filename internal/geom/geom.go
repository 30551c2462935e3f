// Package geom provides the planar geometry substrate used by the
// imprecise location-dependent query engine: points, axis-parallel
// rectangles and their Minkowski sums, convex polygons, and clipping.
//
// The paper (Chen & Cheng, ICDE 2007) models every uncertainty region
// and every range query as an axis-parallel rectangle, so Rect is the
// workhorse type. Convex polygons are provided for the paper's
// future-work extension to non-rectangular regions; the package tests
// hold the rectangle fast paths to a general convex Minkowski sum.
//
// Conventions: the coordinate system is the usual mathematical plane
// (y grows upward). A Rect is closed: boundary points are contained.
// Degenerate rectangles (zero width and/or height) are valid and have
// zero area; they arise naturally as p-bounds of point-like objects.
package geom

import (
	"fmt"
	"math"
)

// Eps is the absolute tolerance used by approximate comparisons in this
// package. Coordinates in the reproduction live in a 10,000 x 10,000
// space, so 1e-9 is far below any meaningful geometric feature.
const Eps = 1e-9

// ApproxEqual reports whether a and b differ by at most Eps.
func ApproxEqual(a, b float64) bool {
	return math.Abs(a-b) <= Eps
}

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p translated by v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// DistTo returns the Euclidean distance between p and q.
func (p Point) DistTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// SqDistTo returns the squared Euclidean distance between p and q.
// It avoids the square root for comparison-only uses.
func (p Point) SqDistTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// ApproxEqual reports whether p and q coincide within Eps per axis.
func (p Point) ApproxEqual(q Point) bool {
	return ApproxEqual(p.X, q.X) && ApproxEqual(p.Y, q.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Vec is a displacement in the plane.
type Vec struct {
	X, Y float64
}

// Cross returns the z-component of the cross product v x w.
// Positive means w is counterclockwise from v.
func (v Vec) Cross(w Vec) float64 { return v.X*w.Y - v.Y*w.X }

// IntervalOverlap returns the length of the intersection of the closed
// intervals [a0, a1] and [b0, b1], or 0 if they are disjoint. It is the
// one-dimensional building block for rectangle overlap areas: for
// axis-parallel rectangles the overlap area is the product of the
// per-axis interval overlaps.
func IntervalOverlap(a0, a1, b0, b1 float64) float64 {
	lo := maxf(a0, b0)
	hi := minf(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}
