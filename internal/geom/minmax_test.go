package geom

import (
	"math"
	"testing"
)

// The math-package forms the min/max builtins replaced, kept as the
// reference they are held to.
func refFromCorners(a, b Point) Rect {
	return Rect{
		Lo: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Hi: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

func refIntersect(r, s Rect) Rect {
	return Rect{
		Lo: Point{math.Max(r.Lo.X, s.Lo.X), math.Max(r.Lo.Y, s.Lo.Y)},
		Hi: Point{math.Min(r.Hi.X, s.Hi.X), math.Min(r.Hi.Y, s.Hi.Y)},
	}
}

func refUnion(r, s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		Lo: Point{math.Min(r.Lo.X, s.Lo.X), math.Min(r.Lo.Y, s.Lo.Y)},
		Hi: Point{math.Max(r.Hi.X, s.Hi.X), math.Max(r.Hi.Y, s.Hi.Y)},
	}
}

func refUnionPoint(r Rect, p Point) Rect {
	if r.Empty() {
		return RectAt(p)
	}
	return Rect{
		Lo: Point{math.Min(r.Lo.X, p.X), math.Min(r.Lo.Y, p.Y)},
		Hi: Point{math.Max(r.Hi.X, p.X), math.Max(r.Hi.Y, p.Y)},
	}
}

func refIntervalOverlap(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func refMinDist(r Rect, p Point) float64 {
	dx := math.Max(math.Max(r.Lo.X-p.X, 0), p.X-r.Hi.X)
	dy := math.Max(math.Max(r.Lo.Y-p.Y, 0), p.Y-r.Hi.Y)
	return math.Hypot(dx, dy)
}

func refMaxDist(r Rect, p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.Lo.X), math.Abs(p.X-r.Hi.X))
	dy := math.Max(math.Abs(p.Y-r.Lo.Y), math.Abs(p.Y-r.Hi.Y))
	return math.Hypot(dx, dy)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRect(a, b Rect) bool {
	return sameBits(a.Lo.X, b.Lo.X) && sameBits(a.Lo.Y, b.Lo.Y) && sameBits(a.Hi.X, b.Hi.X) && sameBits(a.Hi.Y, b.Hi.Y)
}

// TestMinMaxMatchMath holds every geom function that takes a min or a
// max to its math.Min / math.Max form bit for bit, over every
// assignment of {±0, ±1, ±MaxFloat64, ±Inf, NaN} to four coordinates —
// so every pair of those values meets at every min/max operand,
// including the +Inf/NaN and -Inf/NaN pairs where the builtins alone
// would answer NaN.
func TestMinMaxMatchMath(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, x := range vals {
		for _, y := range vals {
			if !sameBits(maxf(x, y), math.Max(x, y)) || !sameBits(minf(x, y), math.Min(x, y)) {
				t.Fatalf("(%v, %v): maxf %v / math.Max %v, minf %v / math.Min %v",
					x, y, maxf(x, y), math.Max(x, y), minf(x, y), math.Min(x, y))
			}
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				for _, d := range vals {
					r := Rect{Lo: Pt(a, b), Hi: Pt(c, d)}
					s := Rect{Lo: Pt(c, a), Hi: Pt(d, b)}
					p := Pt(c, a)
					checks := []struct {
						name     string
						got, ref Rect
					}{
						{"RectFromCorners", RectFromCorners(Pt(a, b), Pt(c, d)), refFromCorners(Pt(a, b), Pt(c, d))},
						{"Intersect", r.Intersect(s), refIntersect(r, s)},
						{"Union", r.Union(s), refUnion(r, s)},
						{"UnionPoint", r.UnionPoint(p), refUnionPoint(r, p)},
					}
					for _, ck := range checks {
						if !sameRect(ck.got, ck.ref) {
							t.Fatalf("%s on %v, %v: got %v, math %v", ck.name, r, s, ck.got, ck.ref)
						}
					}
					if got, ref := IntervalOverlap(a, b, c, d), refIntervalOverlap(a, b, c, d); !sameBits(got, ref) {
						t.Fatalf("IntervalOverlap(%v, %v, %v, %v) = %v, math %v", a, b, c, d, got, ref)
					}
					if got, ref := r.MinDist(p), refMinDist(r, p); !sameBits(got, ref) {
						t.Fatalf("%v.MinDist(%v) = %v, math %v", r, p, got, ref)
					}
					if got, ref := r.MaxDist(p), refMaxDist(r, p); !sameBits(got, ref) {
						t.Fatalf("%v.MaxDist(%v) = %v, math %v", r, p, got, ref)
					}
				}
			}
		}
	}
}
