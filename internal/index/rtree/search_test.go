package rtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// adversarialCoord draws coordinates that stress float comparison
// semantics: NaN, infinities, signed zeros, exact integers (boundary
// contact), and ordinary values.
func adversarialCoord(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return float64(rng.Intn(10))
	default:
		return (rng.Float64() - 0.5) * 100
	}
}

// entryCoord draws a coordinate a tree may hold: mostly the integer
// grid, so boundary contact is the norm, sometimes a signed zero. The
// tree takes finite rectangles only: a NaN entry turns its ancestors'
// envelopes NaN, and an infinite one makes the split's areas NaN.
func entryCoord(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		return math.Copysign(0, -1)
	}
	return float64(rng.Intn(40))
}

// TestSearchMatchesIntersects holds SearchCounted to a brute-force
// q.Intersects(e.Rect) over every stored rectangle: searches over fuzzed
// trees (random inserts and deletes, so nodes split, merge and are
// path-copied under copy-on-write) must return exactly that set. Half
// the queries are grid rectangles that touch entries at their edges;
// the other half take any float64 coordinates — NaN (never
// intersects), infinities, signed zeros and inverted rectangles — which
// the search must treat exactly as Intersects does.
func TestSearchMatchesIntersects(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		rng := rand.New(rand.NewSource(seed))
		tr := newMemTree(t, smallCfg)
		var items []Item
		nextRef := Ref(0)
		add := func(n int) {
			for i := 0; i < n; i++ {
				a, b := entryCoord(rng), entryCoord(rng)
				c, d := entryCoord(rng), entryCoord(rng)
				it := Item{
					Rect: geom.Rect{Lo: geom.Pt(math.Min(a, b), math.Min(c, d)), Hi: geom.Pt(math.Max(a, b), math.Max(c, d))},
					Ref:  nextRef,
				}
				if rng.Intn(2) == 0 {
					lo := geom.Pt(float64(rng.Intn(40)), float64(rng.Intn(40)))
					it.Rect = geom.Rect{Lo: lo, Hi: geom.Pt(lo.X+float64(rng.Intn(5)), lo.Y+float64(rng.Intn(5)))}
				}
				nextRef++
				if err := tr.Insert(it.Rect, it.Ref, nil); err != nil {
					t.Fatal(err)
				}
				items = append(items, it)
			}
		}
		check := func(tr *Tree, items []Item, round string) {
			t.Helper()
			for k := 0; k < 100; k++ {
				var q geom.Rect
				if k%2 == 0 {
					lo := geom.Pt(float64(rng.Intn(40)), float64(rng.Intn(40)))
					q = geom.Rect{Lo: lo, Hi: geom.Pt(lo.X+float64(rng.Intn(10)), lo.Y+float64(rng.Intn(10)))}
				} else {
					q = geom.Rect{
						Lo: geom.Pt(adversarialCoord(rng), adversarialCoord(rng)),
						Hi: geom.Pt(adversarialCoord(rng), adversarialCoord(rng)),
					}
				}
				got, _, err := searchRefs(tr, q)
				if err != nil {
					t.Fatal(err)
				}
				if want := bruteForce(items, q); !refsEqual(sortedRefs(got), want) {
					t.Fatalf("seed %d %s: query %+v: got %v, want %v", seed, round, q, sortedRefs(got), want)
				}
			}
		}
		add(120)
		check(tr, items, "after inserts")
		// Delete a third, insert more: splits, underflows, reinserts.
		for i := 0; i < len(items); i += 3 {
			ok, err := tr.Delete(items[i].Rect, items[i].Ref)
			if err != nil || !ok {
				t.Fatalf("delete %d: ok=%t err=%v", i, ok, err)
			}
		}
		var kept []Item
		for i, it := range items {
			if i%3 != 0 {
				kept = append(kept, it)
			}
		}
		items = kept
		add(60)
		check(tr, items, "after churn")

		// A copy-on-write version takes more churn; the version it was
		// cloned from must still answer for its own items.
		base, baseItems := tr, append([]Item(nil), items...)
		tr = base.CloneCOW()
		for i := 0; i < len(items); i += 4 {
			if ok, err := tr.Delete(items[i].Rect, items[i].Ref); err != nil || !ok {
				t.Fatalf("cow delete %d: ok=%t err=%v", i, ok, err)
			}
		}
		kept = nil
		for i, it := range items {
			if i%4 != 0 {
				kept = append(kept, it)
			}
		}
		items = kept
		add(40)
		if _, err := tr.Seal(); err != nil {
			t.Fatal(err)
		}
		check(tr, items, "after a copy-on-write version")
		check(base, baseItems, "in the version it was cloned from")
	}
}
