package dataset

import (
	"math"
	"testing"
)

// HotspotFraction reports the probability mass of the single hottest
// cluster under exponent s with n clusters — a quick way for tests
// to reason about how skewed a configuration is.
func HotspotFraction(n int, s float64) float64 {
	cum := zipfWeights(n, s)
	if len(cum) == 0 {
		return 0
	}
	return cum[0]
}

// TestZipfSkewConcentratesMass: with a Zipf exponent the densest
// spatial cell must hold a much larger share of the points than under
// uniform cluster choice, and ZipfS=0 must reproduce the historical
// output byte-for-byte.
func TestZipfSkewConcentratesMass(t *testing.T) {
	base := PointConfig{N: 20000, Clusters: 32, ClusterSigma: 150, BackgroundFrac: 0.1, Seed: 7}

	uniform := GeneratePoints(base)

	skewed := base
	skewed.ZipfS = 1.4
	hot := GeneratePoints(skewed)

	const grid = 8
	cellShare := func(xs, ys []float64) float64 {
		counts := make([]int, grid*grid)
		for i := range xs {
			cx := int(xs[i] / (Extent / grid))
			cy := int(ys[i] / (Extent / grid))
			if cx >= grid {
				cx = grid - 1
			}
			if cy >= grid {
				cy = grid - 1
			}
			counts[cy*grid+cx]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		return float64(best) / float64(len(xs))
	}
	ux := make([]float64, len(uniform))
	uy := make([]float64, len(uniform))
	for i, p := range uniform {
		ux[i], uy[i] = p.X, p.Y
	}
	hx := make([]float64, len(hot))
	hy := make([]float64, len(hot))
	for i, p := range hot {
		hx[i], hy[i] = p.X, p.Y
	}

	us, hs := cellShare(ux, uy), cellShare(hx, hy)
	if hs < us*1.5 {
		t.Errorf("hotspot skew too weak: hottest-cell share %0.3f (uniform %0.3f)", hs, us)
	}

	// Determinism and backward compatibility.
	again := GeneratePoints(base)
	for i := range uniform {
		if uniform[i] != again[i] {
			t.Fatalf("ZipfS=0 generation not deterministic at %d", i)
		}
	}
	hotAgain := GeneratePoints(skewed)
	for i := range hot {
		if hot[i] != hotAgain[i] {
			t.Fatalf("hotspot generation not deterministic at %d", i)
		}
	}
}

func TestHotspotFraction(t *testing.T) {
	if f := HotspotFraction(10, 1.0); f < 0.2 || f > 0.5 {
		t.Errorf("HotspotFraction(10, 1.0) = %v, want a dominant-but-not-total share", f)
	}
	if f := HotspotFraction(10, 3.0); f < 0.8 {
		t.Errorf("HotspotFraction(10, 3.0) = %v, want near-total concentration", f)
	}
	if !math.IsNaN(HotspotFraction(0, 1.0)) && HotspotFraction(0, 1.0) != 0 {
		t.Errorf("HotspotFraction(0, s) should be 0")
	}
}
