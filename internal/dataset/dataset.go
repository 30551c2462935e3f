// Package dataset generates and (de)serializes the experiment
// datasets.
//
// The paper evaluates on two TIGER census extracts: California (62K
// points, used as the point-object database) and Long Beach (53K
// rectangles, used as the uncertain-object database), both normalized
// to a 10,000 x 10,000 space (§6.1). Those files are not redistributed
// here, so this package synthesizes stand-ins with the same
// cardinalities, extent, and the skewed, clustered spatial distribution
// characteristic of geographic data: a configurable number of Gaussian
// clusters (cities/road knots) over a uniform background. The
// experiments measure how filtering and pruning scale with query
// parameters, which depends on object density and skew — both
// reproduced — rather than on exact street geometry.
//
// Generation is deterministic per seed. Datasets round-trip through a
// compact binary format (.ilq) with a magic header and version byte.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// World is the experiment coordinate space: [0, Extent]^2.
const Extent = 10000.0

// Defaults matching the paper's setup (§6.1, Table 2).
const (
	// CaliforniaSize is the point-object count of the California set.
	CaliforniaSize = 62000
	// LongBeachSize is the rectangle count of the Long Beach set.
	LongBeachSize = 53000
)

// PointConfig parameterizes synthetic point generation.
type PointConfig struct {
	// N is the number of points.
	N int
	// Clusters is the number of Gaussian clusters; 0 disables
	// clustering (pure uniform).
	Clusters int
	// ClusterSigma is the cluster standard deviation in space units.
	ClusterSigma float64
	// BackgroundFrac is the fraction of points drawn uniformly over
	// the whole space rather than from a cluster.
	BackgroundFrac float64
	// ZipfS, when positive, skews cluster choice by a Zipf law over
	// cluster rank (weight ∝ 1/rank^ZipfS) — the hotspot workload.
	// Zero keeps the uniform cluster choice (and byte-identical output
	// for existing seeds).
	ZipfS float64
	// Seed drives the generator.
	Seed int64
}

// CaliforniaConfig returns the default stand-in for the California
// point set.
func CaliforniaConfig() PointConfig {
	return PointConfig{
		N:              CaliforniaSize,
		Clusters:       48,
		ClusterSigma:   280,
		BackgroundFrac: 0.25,
		Seed:           20070415, // ICDE 2007 opening day
	}
}

// RectConfig parameterizes synthetic rectangle generation.
type RectConfig struct {
	// N is the number of rectangles.
	N int
	// Clusters, ClusterSigma, BackgroundFrac, ZipfS: as in PointConfig.
	Clusters       int
	ClusterSigma   float64
	BackgroundFrac float64
	ZipfS          float64
	// MeanHalfW and MeanHalfH are the mean half extents; individual
	// extents are exponentially distributed around them (many small
	// regions, a few large ones), clamped to [MinHalf, MaxHalf].
	MeanHalfW, MeanHalfH float64
	MinHalf, MaxHalf     float64
	// Seed drives the generator.
	Seed int64
}

// LongBeachConfig returns the default stand-in for the Long Beach
// rectangle set. Mean half extents of ~20 units give uncertainty
// regions commensurate with the default query geometry (u=250, w=500).
func LongBeachConfig() RectConfig {
	return RectConfig{
		N:              LongBeachSize,
		Clusters:       36,
		ClusterSigma:   320,
		BackgroundFrac: 0.25,
		MeanHalfW:      20,
		MeanHalfH:      20,
		MinHalf:        1,
		MaxHalf:        120,
		Seed:           20070420,
	}
}

// GeneratePoints synthesizes a clustered point set.
func GeneratePoints(cfg PointConfig) []geom.Point {
	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := clusterCenters(rng, cfg.Clusters)
	var cum []float64
	if cfg.ZipfS > 0 {
		cum = zipfWeights(len(centers), cfg.ZipfS)
	}
	pts := make([]geom.Point, cfg.N)
	for i := range pts {
		pts[i] = samplePositionWeighted(rng, centers, cum, cfg.ClusterSigma, cfg.BackgroundFrac)
	}
	return pts
}

// GenerateRects synthesizes a clustered rectangle set.
func GenerateRects(cfg RectConfig) []geom.Rect {
	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := clusterCenters(rng, cfg.Clusters)
	var cum []float64
	if cfg.ZipfS > 0 {
		cum = zipfWeights(len(centers), cfg.ZipfS)
	}
	rects := make([]geom.Rect, cfg.N)
	for i := range rects {
		c := samplePositionWeighted(rng, centers, cum, cfg.ClusterSigma, cfg.BackgroundFrac)
		hw := clampF(rng.ExpFloat64()*cfg.MeanHalfW, cfg.MinHalf, cfg.MaxHalf)
		hh := clampF(rng.ExpFloat64()*cfg.MeanHalfH, cfg.MinHalf, cfg.MaxHalf)
		r := geom.RectCentered(c, hw, hh)
		rects[i] = clampRect(r)
	}
	return rects
}

// clusterCenters draws cluster centers uniformly, away from the very
// edge so clusters are not half-truncated.
func clusterCenters(rng *rand.Rand, n int) []geom.Point {
	if n <= 0 {
		return nil
	}
	margin := Extent * 0.05
	centers := make([]geom.Point, n)
	for i := range centers {
		centers[i] = geom.Pt(
			margin+rng.Float64()*(Extent-2*margin),
			margin+rng.Float64()*(Extent-2*margin),
		)
	}
	return centers
}

// samplePositionWeighted draws one position: uniform background with
// probability backgroundFrac, otherwise Gaussian around a cluster
// center, clamped to the space. The center is drawn from the Zipf
// cumulative distribution cum, or uniformly when cum is nil.
func samplePositionWeighted(rng *rand.Rand, centers []geom.Point, cum []float64, sigma, backgroundFrac float64) geom.Point {
	if len(centers) == 0 || rng.Float64() < backgroundFrac {
		return geom.Pt(rng.Float64()*Extent, rng.Float64()*Extent)
	}
	c := pickCluster(rng, centers, cum)
	return geom.Pt(
		clampF(c.X+rng.NormFloat64()*sigma, 0, Extent),
		clampF(c.Y+rng.NormFloat64()*sigma, 0, Extent),
	)
}

func clampF(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}

// clampRect shifts a rectangle to fit inside the world (preserving its
// size when possible).
func clampRect(r geom.Rect) geom.Rect {
	var dx, dy float64
	if r.Lo.X < 0 {
		dx = -r.Lo.X
	} else if r.Hi.X > Extent {
		dx = Extent - r.Hi.X
	}
	if r.Lo.Y < 0 {
		dy = -r.Lo.Y
	} else if r.Hi.Y > Extent {
		dy = Extent - r.Hi.Y
	}
	return r.Translate(geom.Vec{X: dx, Y: dy})
}

// PDFKind selects the uncertainty pdf attached to generated objects.
type PDFKind int

const (
	// PDFUniform is the paper's default pdf (§6.1).
	PDFUniform PDFKind = iota
	// PDFGaussian is the §6.2 non-uniform pdf: mean at the region
	// center, sigma one-sixth of the region extent per axis.
	PDFGaussian
)

// String implements fmt.Stringer.
func (k PDFKind) String() string {
	switch k {
	case PDFUniform:
		return "uniform"
	case PDFGaussian:
		return "gaussian"
	default:
		return fmt.Sprintf("PDFKind(%d)", int(k))
	}
}

// BuildPointObjects wraps raw points as point objects with ids equal
// to their index.
func BuildPointObjects(pts []geom.Point) []uncertain.PointObject {
	out := make([]uncertain.PointObject, len(pts))
	for i, p := range pts {
		out[i] = uncertain.PointObject{ID: uncertain.ID(i), Loc: p}
	}
	return out
}

// BuildUncertainObjects wraps rectangles as uncertain objects with the
// given pdf kind and U-catalog probability values.
func BuildUncertainObjects(rects []geom.Rect, kind PDFKind, catalogProbs []float64) ([]*uncertain.Object, error) {
	out := make([]*uncertain.Object, len(rects))
	for i, r := range rects {
		var p pdf.PDF
		var err error
		switch kind {
		case PDFUniform:
			p, err = pdf.NewUniform(r)
		case PDFGaussian:
			p, err = pdf.NewTruncGaussian(r, 0, 0)
		default:
			return nil, fmt.Errorf("dataset: unknown pdf kind %v", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: rect %d (%v): %w", i, r, err)
		}
		o, err := uncertain.NewObject(uncertain.ID(i), p, catalogProbs)
		if err != nil {
			return nil, err
		}
		out[i] = o
	}
	return out, nil
}
