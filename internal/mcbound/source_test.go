package mcbound

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds is the seed set TestSourceMatchesMathRand checks: zero,
// the multiples of the Lehmer modulus (which math/rand folds to zero and
// then to lehmerZero), their neighbours, lehmerZero itself, the int64
// extremes and small magnitudes, plus random seeds — at least 3 000 in
// all.
func sourceSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, lehmerZero, -lehmerZero, math.MaxInt64, math.MinInt64,
		math.MaxInt64 - 1, math.MinInt64 + 1, math.MaxInt32, math.MinInt32}
	for _, k := range []int64{1, 2, 3, 1000, 1 << 20, math.MaxInt64 / lehmerM} {
		for _, d := range []int64{-1, 0, 1} {
			seeds = append(seeds, k*lehmerM+d, -k*lehmerM+d)
		}
	}
	rng := rand.New(rand.NewSource(20240607))
	for len(seeds) < 3010 {
		switch len(seeds) % 3 {
		case 0:
			seeds = append(seeds, int64(rng.Uint64())) // the full int64 range
		case 1:
			seeds = append(seeds, rng.Int63n(1<<32)-1<<31) // around the modulus
		default:
			seeds = append(seeds, DeriveSeed(rng.Int63(), rng.Intn(64))) // what the NN kernel seeds with
		}
	}
	return seeds
}

// TestSourceMatchesMathRand holds Source to rand.NewSource output for
// output: the raw Uint64 stream, and every rand.Rand method the engine's
// samplers use drawn through rand.New, for every seed in sourceSeeds;
// re-seeding a used Source, directly and through rand.Rand.Seed, must
// start the new seed's stream afresh.
func TestSourceMatchesMathRand(t *testing.T) {
	const outputs = 2000
	src := new(Source)
	for _, seed := range sourceSeeds() {
		ref := rand.NewSource(seed).(rand.Source64)
		src.Seed(seed)
		if got, want := FirstUint64(seed), rand.NewSource(seed).(rand.Source64).Uint64(); got != want {
			t.Fatalf("seed %d: FirstUint64 = %#x, math/rand's first output %#x", seed, got, want)
		}
		for k := range outputs {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: output %d = %#x, math/rand %#x", seed, k, got, want)
			}
		}
	}

	for i, seed := range sourceSeeds()[:200] {
		got, want := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
		for k := range 300 {
			g := [...]float64{float64(got.Int63()), got.Float64(), got.NormFloat64(), got.ExpFloat64(),
				float64(got.Intn(1 + k)), float64(got.Int63n(1<<40 + int64(k)))}
			w := [...]float64{float64(want.Int63()), want.Float64(), want.NormFloat64(), want.ExpFloat64(),
				float64(want.Intn(1 + k)), float64(want.Int63n(1<<40 + int64(k)))}
			if g != w {
				t.Fatalf("seed %d: draw %d through rand.New = %v, math/rand %v", seed, k, g, w)
			}
		}
		// Mid-stream re-seed: the generator forgets everything it drew.
		next := seed ^ int64(i)<<33
		got.Seed(next)
		want.Seed(next)
		for k := range 200 {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d re-seeded to %d: output %d = %#x, math/rand %#x", seed, next, k, g, w)
			}
		}
	}
}

// FuzzSource: a Source seeded with any seed yields math/rand's first
// 1 300 outputs for it — more than the 607-word state, so every output
// past the first lap reads words the source itself wrote — and
// FirstUint64 its first.
func FuzzSource(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, lehmerM, -lehmerM, math.MinInt64, math.MaxInt64, lehmerZero} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		ref, src := rand.NewSource(seed).(rand.Source64), NewSource(seed)
		if got, want := FirstUint64(seed), NewSource(seed).Uint64(); got != want {
			t.Fatalf("seed %d: FirstUint64 = %#x, first output %#x", seed, got, want)
		}
		for k := range 1300 {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: output %d = %#x, math/rand %#x", seed, k, got, want)
			}
		}
	})
}

// BenchmarkSeed compares seeding math/rand's source with seeding a
// Source in place — the per-block cost of the NN kernel's stream.
func BenchmarkSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		src := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("mcbound", func(b *testing.B) {
		b.ReportAllocs()
		src := NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
}
