package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/uncertain"
)

// TestSortByIDMatchesStableSort holds the radix sort to
// slices.SortStableFunc for every length up to 3 000, over id
// distributions that exercise each shortcut: a small range (one or two
// varying bytes), all 64 bits, negative ids, and one id repeated
// (no pass at all). Loc[0] records each element's input position, so
// the comparison also checks stability.
func TestSortByIDMatchesStableSort(t *testing.T) {
	dists := []struct {
		name string
		id   func(r *rand.Rand) uncertain.ID
	}{
		{"small range", func(r *rand.Rand) uncertain.ID { return uncertain.ID(r.Intn(40)) }},
		{"shard ids", func(r *rand.Rand) uncertain.ID { return uncertain.ID(r.Intn(30000)) }},
		{"all 64 bits", func(r *rand.Rand) uncertain.ID { return uncertain.ID(r.Uint64()) }},
		{"negative", func(r *rand.Rand) uncertain.ID { return -1 - uncertain.ID(r.Intn(1<<20)) }},
		{"around zero", func(r *rand.Rand) uncertain.ID { return uncertain.ID(r.Intn(200) - 100) }},
		{"extremes", func(r *rand.Rand) uncertain.ID {
			return []uncertain.ID{math.MinInt64, -1, 0, 1, math.MaxInt64}[r.Intn(5)]
		}},
		{"all equal", func(*rand.Rand) uncertain.ID { return 77 }},
	}
	byID := func(a, b NNCandidate) int { return cmp.Compare(a.ID, b.ID) }
	for _, d := range dists {
		r := rand.New(rand.NewSource(5))
		for n := 0; n <= 3000; n++ {
			if n > 300 && n%31 != 0 && n != 3000 {
				continue // every length to 300, then a sample of the rest
			}
			got := make([]NNCandidate, n)
			for i := range got {
				got[i] = NNCandidate{ID: d.id(r), Loc: [2]float64{float64(i), 0}}
			}
			want := slices.Clone(got)
			slices.SortStableFunc(want, byID)
			in, tmp := got, make([]NNCandidate, n+r.Intn(3))
			got = sortByID(in, tmp)
			if len(got) != n || n > 0 && &got[0] != &in[0] && &got[0] != &tmp[0] {
				t.Fatalf("%s, n=%d: result is neither the input nor the buffer", d.name, n)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s, n=%d: radix sort differs from slices.SortStableFunc", d.name, n)
			}
		}
	}
}
