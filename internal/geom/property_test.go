package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Additional algebraic property tests for the geometry substrate: the
// engine's correctness arguments (Lemmas 1-5) lean on these identities,
// so they are pinned independently of any query code.

func TestPropUnionCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	f := func() bool {
		a, b, c := randRect(rng), randRect(rng), randRect(rng)
		if !a.Union(b).ApproxEqual(b.Union(a)) {
			return false
		}
		return a.Union(b).Union(c).ApproxEqual(a.Union(b.Union(c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropIntersectCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		x, y := a.Intersect(b), b.Intersect(a)
		if x.Empty() != y.Empty() {
			return false
		}
		return x.Empty() || x.ApproxEqual(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropMinkowskiCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		return a.MinkowskiSum(b).ApproxEqual(b.MinkowskiSum(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropMinkowskiTranslationCovariant(t *testing.T) {
	// (A + v) ⊕ B == (A ⊕ B) + v — the property behind "the expanded
	// query is the union of all query placements" (Lemma 1).
	rng := rand.New(rand.NewSource(504))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		v := Vec{X: rng.Float64()*50 - 25, Y: rng.Float64()*50 - 25}
		lhs := a.Translate(v).MinkowskiSum(b)
		rhs := a.MinkowskiSum(b).Translate(v)
		return lhs.ApproxEqual(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropExpandedQueryIsPointwiseUnion(t *testing.T) {
	// R ⊕ U0 contains R(x, y) for every (x, y) in U0 and nothing more
	// (up to boundary): sampled check of Lemma 1's geometric core.
	rng := rand.New(rand.NewSource(505))
	f := func() bool {
		u0 := randRect(rng)
		w, h := rng.Float64()*20+1, rng.Float64()*20+1
		exp := ExpandedQuery(u0, w, h)
		// Queries placed inside U0 stay inside the expansion.
		for i := 0; i < 10; i++ {
			c := Pt(
				u0.Lo.X+rng.Float64()*u0.Width(),
				u0.Lo.Y+rng.Float64()*u0.Height(),
			)
			if !exp.ContainsRect(RectCentered(c, w, h)) {
				return false
			}
		}
		// Points strictly outside the expansion are unreachable by any
		// placement.
		outside := Pt(exp.Hi.X+1, exp.Hi.Y+1)
		q := RectCentered(u0.Center(), w, h)
		return !q.Contains(outside)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropContainsConsistentWithIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(506))
	f := func() bool {
		a, b := randRect(rng), randRect(rng)
		if a.ContainsRect(b) {
			// Containment implies the intersection is b itself.
			return a.Intersect(b).ApproxEqual(b)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropCornersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(507))
	f := func() bool {
		r := randRect(rng)
		poly := r.ToPolygon()
		return poly.Bounds().ApproxEqual(r) && math.Abs(poly.Area()-r.Area()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPropDistancesTriangleish(t *testing.T) {
	// MinDist is a lower bound for the distance to every point of the
	// rectangle, MaxDist an upper bound.
	rng := rand.New(rand.NewSource(508))
	f := func() bool {
		r := randRect(rng)
		p := Pt(rng.Float64()*400-200, rng.Float64()*400-200)
		q := Pt(
			r.Lo.X+rng.Float64()*r.Width(),
			r.Lo.Y+rng.Float64()*r.Height(),
		)
		d := p.DistTo(q)
		return r.MinDist(p) <= d+Eps && d <= r.MaxDist(p)+Eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestVecOperations(t *testing.T) {
	v := Pt(4, 6).Sub(Pt(1, 2))
	if v != (Vec{X: 3, Y: 4}) {
		t.Fatalf("Sub = %v", v)
	}
	if got := Pt(1, 2).Add(v); got != Pt(4, 6) {
		t.Fatalf("Add = %v", got)
	}
	if got := (Vec{X: 1, Y: 0}).Cross(Vec{X: 0, Y: 1}); got != 1 {
		t.Fatalf("Cross = %g", got)
	}
	if got := (Vec{X: 0, Y: 1}).Cross(Vec{X: 1, Y: 0}); got != -1 {
		t.Fatalf("clockwise Cross = %g", got)
	}
}

func TestStringers(t *testing.T) {
	// Smoke the Stringers (formatting stability matters for logs).
	if s := Pt(1, 2).String(); s != "(1, 2)" {
		t.Fatalf("Point.String = %q", s)
	}
	r := Rect{Lo: Pt(0, 1), Hi: Pt(2, 3)}
	if s := r.String(); s != "[0,2]x[1,3]" {
		t.Fatalf("Rect.String = %q", s)
	}
}
