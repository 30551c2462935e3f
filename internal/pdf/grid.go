package pdf

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
)

// Grid is a piecewise-constant pdf over an nx × ny lattice of equal
// cells covering the support rectangle. Unlike Product it can express
// correlated (non-separable) location distributions, such as an object
// likelier to be near a road that crosses its uncertainty region
// diagonally. Grids exercise the engine's generic (numeric) evaluation
// paths, demonstrating the paper's claim that the methods "can deal
// with any type of probability distribution".
type Grid struct {
	support geom.Rect
	nx, ny  int
	cellW   float64
	cellH   float64
	mass    []float64 // nx*ny cell masses, row-major by y then x; sums to 1
	cum     []float64 // len nx*ny+1 prefix sums for sampling
}

// NewGrid builds a grid pdf from non-negative relative cell weights in
// row-major order (index = iy*nx + ix). Weights are normalized.
func NewGrid(support geom.Rect, nx, ny int, weights []float64) (*Grid, error) {
	if err := support.Validate(); err != nil {
		return nil, err
	}
	if support.Area() == 0 {
		return nil, fmt.Errorf("pdf: grid needs a non-degenerate region, got %v", support)
	}
	if a := support.Area(); math.IsNaN(a) || math.IsInf(a, 0) {
		return nil, fmt.Errorf("%w: area of %v", ErrNonFiniteSupport, support)
	}
	if nx < 1 || ny < 1 || len(weights) != nx*ny {
		return nil, fmt.Errorf("pdf: grid wants %d weights for %dx%d cells, got %d", nx*ny, nx, ny, len(weights))
	}
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, ErrBadWeights
		}
		total += w
	}
	if total <= 0 {
		return nil, ErrBadWeights
	}
	g := &Grid{
		support: support,
		nx:      nx,
		ny:      ny,
		cellW:   support.Width() / float64(nx),
		cellH:   support.Height() / float64(ny),
		mass:    make([]float64, nx*ny),
		cum:     make([]float64, nx*ny+1),
	}
	for i, w := range weights {
		g.mass[i] = w / total
		g.cum[i+1] = g.cum[i] + g.mass[i]
	}
	g.cum[nx*ny] = 1
	return g, nil
}

// Support implements PDF.
func (g *Grid) Support() geom.Rect { return g.support }

// cellRect returns the rectangle of cell (ix, iy).
func (g *Grid) cellRect(ix, iy int) geom.Rect {
	lo := geom.Pt(
		g.support.Lo.X+float64(ix)*g.cellW,
		g.support.Lo.Y+float64(iy)*g.cellH,
	)
	return geom.Rect{Lo: lo, Hi: geom.Pt(lo.X+g.cellW, lo.Y+g.cellH)}
}

// At implements PDF.
func (g *Grid) At(p geom.Point) float64 {
	if !g.support.Contains(p) {
		return 0
	}
	ix := int((p.X - g.support.Lo.X) / g.cellW)
	iy := int((p.Y - g.support.Lo.Y) / g.cellH)
	if ix >= g.nx {
		ix = g.nx - 1
	}
	if iy >= g.ny {
		iy = g.ny - 1
	}
	return g.mass[iy*g.nx+ix] / (g.cellW * g.cellH)
}

// MassIn implements PDF by accumulating, for each cell, the fraction of
// the cell covered by r times the cell's mass. Only the cells
// overlapping r are visited.
func (g *Grid) MassIn(r geom.Rect) float64 {
	r = r.Intersect(g.support)
	if r.Empty() {
		return 0
	}
	ix0 := int((r.Lo.X - g.support.Lo.X) / g.cellW)
	ix1 := int(math.Ceil((r.Hi.X - g.support.Lo.X) / g.cellW))
	iy0 := int((r.Lo.Y - g.support.Lo.Y) / g.cellH)
	iy1 := int(math.Ceil((r.Hi.Y - g.support.Lo.Y) / g.cellH))
	ix0 = clampInt(ix0, 0, g.nx-1)
	iy0 = clampInt(iy0, 0, g.ny-1)
	ix1 = clampInt(ix1, 1, g.nx)
	iy1 = clampInt(iy1, 1, g.ny)
	cellArea := g.cellW * g.cellH
	var total float64
	for iy := iy0; iy < iy1; iy++ {
		for ix := ix0; ix < ix1; ix++ {
			m := g.mass[iy*g.nx+ix]
			if m == 0 {
				continue
			}
			ov := g.cellRect(ix, iy).OverlapArea(r)
			if ov > 0 {
				total += m * ov / cellArea
			}
		}
	}
	return total
}

// Sample implements PDF: pick a cell by mass, then a uniform point
// inside it.
func (g *Grid) Sample(rng *rand.Rand) geom.Point {
	u := rng.Float64()
	i := sort.SearchFloat64s(g.cum, u)
	if i > 0 {
		i--
	}
	if i >= len(g.mass) {
		i = len(g.mass) - 1
	}
	ix, iy := i%g.nx, i/g.nx
	cell := g.cellRect(ix, iy)
	return geom.Pt(
		cell.Lo.X+rng.Float64()*g.cellW,
		cell.Lo.Y+rng.Float64()*g.cellH,
	)
}

func clampInt(v, lo, hi int) int {
	switch {
	case v < lo:
		return lo
	case v > hi:
		return hi
	default:
		return v
	}
}
