package dataset

import (
	"math"
	"math/rand"

	"repro/internal/geom"
)

// Hotspot (skewed) workloads: instead of picking among cluster centers
// uniformly, cluster i is chosen with probability proportional to
// 1/(i+1)^s — a Zipf law over cluster rank. A handful of clusters then
// absorb most of the mass, the way real mobility traces concentrate on
// a few city centers, which is what exercises a tile map's density
// handling: uniform tiles leave most shards idle while the hot tiles
// saturate, and an uneven tile map (the spec's assign= clause)
// rebalances them.
//
// ZipfS = 0 (the zero value) keeps the historical uniform cluster
// choice and byte-identical output for existing seeds.

// zipfWeights returns the cumulative Zipf distribution over n ranks
// with exponent s, for inverse-CDF sampling.
func zipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1 // guard against rounding
	return cum
}

// pickCluster selects a cluster center: uniformly when cum is nil,
// otherwise by inverse-CDF over the cumulative weights.
func pickCluster(rng *rand.Rand, centers []geom.Point, cum []float64) geom.Point {
	if cum == nil {
		return centers[rng.Intn(len(centers))]
	}
	u := rng.Float64()
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return centers[lo]
}
