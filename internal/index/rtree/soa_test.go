package rtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// soaScanHits replicates searchNode's SoA overlap test and returns the
// indices it selects. Kept textually in sync with search.go: the four
// comparisons must be exactly q.Intersects(e.Rect).
func soaScanHits(s *soaRects, q geom.Rect) []int {
	var hits []int
	for i := range s.loX {
		if q.Lo.X <= s.hiX[i] && s.loX[i] <= q.Hi.X &&
			q.Lo.Y <= s.hiY[i] && s.loY[i] <= q.Hi.Y {
			hits = append(hits, i)
		}
	}
	return hits
}

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

// TestSearchSoABitIdentical is the SoA scan's contract test, at two
// levels.
//
// Scan level: the flat four-comparison test over a node's soaRects
// mirror must agree with geom.Rect.Intersects entry by entry for ANY
// float64 coordinates — including NaN (never intersects), infinities,
// signed zeros, and inverted rectangles that no valid tree contains
// but that the comparison must still treat identically.
//
// Tree level: searches over fuzzed trees (random inserts and deletes,
// so nodes split, merge, and have their cached mirrors invalidated)
// must return exactly the brute-force Intersects result, with queries
// drawn to make boundary contact common.
func TestSearchSoABitIdentical(t *testing.T) {
	// Scan level: fuzzed entry slices with adversarial coordinates.
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		entries := make([]Entry, rng.Intn(12))
		for i := range entries {
			entries[i] = Entry{
				Rect: geom.Rect{
					Lo: geom.Pt(adversarialCoord(rng), adversarialCoord(rng)),
					Hi: geom.Pt(adversarialCoord(rng), adversarialCoord(rng)),
				},
				Ref: Ref(i),
			}
		}
		q := geom.Rect{
			Lo: geom.Pt(adversarialCoord(rng), adversarialCoord(rng)),
			Hi: geom.Pt(adversarialCoord(rng), adversarialCoord(rng)),
		}
		s := buildSoA(entries)
		hits := soaScanHits(s, q)
		j := 0
		for i := range entries {
			want := q.Intersects(entries[i].Rect)
			got := j < len(hits) && hits[j] == i
			if got {
				j++
			}
			if got != want {
				t.Fatalf("trial %d entry %d: SoA scan %t, Intersects %t (q=%+v rect=%+v)",
					trial, i, got, want, q, entries[i].Rect)
			}
		}
	}

	// Tree level: fuzzed trees, integer-grid geometry so edge-touching
	// queries are the norm, with a mutation pass between query rounds
	// to exercise mirror invalidation on split, delete, and in-place
	// entry updates.
	for _, seed := range []int64{1, 7, 23} {
		rng := rand.New(rand.NewSource(seed))
		tr := newMemTree(t, smallCfg)
		var items []Item
		nextRef := Ref(0)
		add := func(n int) {
			for i := 0; i < n; i++ {
				lo := geom.Pt(float64(rng.Intn(40)), float64(rng.Intn(40)))
				it := Item{
					Rect: geom.Rect{Lo: lo, Hi: geom.Pt(lo.X+float64(rng.Intn(5)), lo.Y+float64(rng.Intn(5)))},
					Ref:  nextRef,
				}
				nextRef++
				if err := tr.Insert(it.Rect, it.Ref, nil); err != nil {
					t.Fatal(err)
				}
				items = append(items, it)
			}
		}
		check := func(round string) {
			for k := 0; k < 50; k++ {
				lo := geom.Pt(float64(rng.Intn(40)), float64(rng.Intn(40)))
				q := geom.Rect{Lo: lo, Hi: geom.Pt(lo.X+float64(rng.Intn(10)), lo.Y+float64(rng.Intn(10)))}
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
		check("after inserts")
		// Delete a third, insert more: splits, underflows, reinserts.
		for i := 0; i < len(items); i += 3 {
			ok, err := tr.Delete(items[i].Rect, items[i].Ref)
			if err != nil || !ok {
				t.Fatalf("delete %d: ok=%t err=%v", i, ok, err)
			}
		}
		kept := items[:0]
		for i, it := range items {
			if i%3 != 0 {
				kept = append(kept, it)
			}
		}
		items = kept
		add(60)
		check("after churn")
	}
}
