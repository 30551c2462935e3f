package pdf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// ErrDegeneratePolygon is returned for polygons without positive area.
var ErrDegeneratePolygon = errors.New("pdf: polygon has no area")

// ConvexUniform is the uniform distribution over a convex polygon —
// the paper's second future-work item (§7: "queries and uncertain
// regions with non-rectangular shapes"). It implements PDF exactly:
// rectangle masses come from polygon clipping, so every engine path
// that needs only MassIn (point-object duality, p-bound construction
// by bisection, basic evaluation) stays exact; uncertain-object
// refinement falls back to the Monte-Carlo path because the
// distribution is not separable.
//
// Support() returns the polygon's bounding rectangle; the density is
// zero on the part of that rectangle outside the polygon, which every
// consumer tolerates by construction (the model only requires the
// density to vanish outside the support).
type ConvexUniform struct {
	poly   geom.Polygon
	bounds geom.Rect
	area   float64
}

// NewConvexUniform builds the uniform pdf over a convex
// counterclockwise polygon with positive area.
func NewConvexUniform(poly geom.Polygon) (*ConvexUniform, error) {
	if !poly.IsConvexCCW() {
		return nil, fmt.Errorf("%w: %v", geom.ErrNotConvex, poly)
	}
	bounds := poly.Bounds()
	if err := CheckFiniteSupport(bounds); err != nil {
		return nil, err
	}
	area := poly.Area()
	if math.IsInf(area, 0) || math.IsNaN(area) {
		return nil, fmt.Errorf("%w: area %g", ErrNonFiniteSupport, area)
	}
	if area <= 0 {
		return nil, fmt.Errorf("%w: area %g", ErrDegeneratePolygon, area)
	}
	p := make(geom.Polygon, len(poly))
	copy(p, poly)
	return &ConvexUniform{poly: p, bounds: bounds, area: area}, nil
}

// NewDisc builds a regular-polygon approximation of the uniform
// distribution over a disc with the given center and radius, using
// sides vertices (minimum 8; 64 keeps the area within 0.2% of the true
// disc). Discs are the natural uncertainty model for "within d of the
// last fix" imprecision.
func NewDisc(center geom.Point, radius float64, sides int) (*ConvexUniform, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("pdf: disc radius %g must be positive", radius)
	}
	if sides < 8 {
		sides = 8
	}
	return NewConvexUniform(geom.RegularPolygon(center, radius, sides))
}

// Support implements PDF.
func (c *ConvexUniform) Support() geom.Rect { return c.bounds }

// At implements PDF.
func (c *ConvexUniform) At(p geom.Point) float64 {
	if !c.poly.Contains(p) {
		return 0
	}
	return 1 / c.area
}

// MassIn implements PDF exactly via Sutherland–Hodgman clipping.
func (c *ConvexUniform) MassIn(r geom.Rect) float64 {
	if !r.Intersects(c.bounds) {
		return 0
	}
	clipped := c.poly.ClipToRect(r)
	if len(clipped) < 3 {
		return 0
	}
	m := clipped.Area() / c.area
	if m > 1 {
		m = 1 // clamp accumulated floating-point excess
	}
	return m
}

// Sample implements PDF by rejection from the bounding rectangle; a
// convex body fills at least half its bounding box, so the expected
// number of trials is at most 2.
func (c *ConvexUniform) Sample(rng *rand.Rand) geom.Point {
	for {
		p := geom.Pt(
			c.bounds.Lo.X+rng.Float64()*c.bounds.Width(),
			c.bounds.Lo.Y+rng.Float64()*c.bounds.Height(),
		)
		if c.poly.Contains(p) {
			return p
		}
	}
}
