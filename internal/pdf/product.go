package pdf

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
)

// Product is the separable pdf fX(x)·fY(y) over the rectangle spanned
// by the two marginals' supports. Both pdfs used in the paper's
// experiments are Products: the uniform pdf (§3.1) and the truncated
// Gaussian (§6.2, mean at the region center, deviation one-sixth of the
// region size per axis).
type Product struct {
	x, y    Marginal
	support geom.Rect
}

// NewProduct builds a separable pdf from its two marginals.
func NewProduct(x, y Marginal) *Product {
	xlo, xhi := x.Bounds()
	ylo, yhi := y.Bounds()
	return &Product{
		x:       x,
		y:       y,
		support: geom.Rect{Lo: geom.Pt(xlo, ylo), Hi: geom.Pt(xhi, yhi)},
	}
}

// NewUniform returns the uniform pdf over region — the paper's
// "worst-case" default pdf fi(x,y) = 1/|Ui|.
func NewUniform(region geom.Rect) (*Product, error) {
	if err := region.Validate(); err != nil {
		return nil, err
	}
	x, err := NewUniformMarginal(region.Lo.X, region.Hi.X)
	if err != nil {
		return nil, err
	}
	y, err := NewUniformMarginal(region.Lo.Y, region.Hi.Y)
	if err != nil {
		return nil, err
	}
	return NewProduct(x, y), nil
}

// CheckUniform returns the error NewUniform returns for region, without
// building the pdf: nil when region is a valid rectangle of finite
// extent.
func CheckUniform(region geom.Rect) error {
	if err := region.Validate(); err != nil {
		return err
	}
	if err := finiteExtent(region.Lo.X, region.Hi.X); err != nil {
		return err
	}
	return finiteExtent(region.Lo.Y, region.Hi.Y)
}

// MustUniform is NewUniform that panics on error, for statically valid
// regions in tests and examples.
func MustUniform(region geom.Rect) *Product {
	p, err := NewUniform(region)
	if err != nil {
		panic(err)
	}
	return p
}

// NewTruncGaussian returns the truncated-Gaussian pdf over region with
// the mean at the region center and the given per-axis standard
// deviations. Passing sigmaX or sigmaY <= 0 selects the paper's §6.2
// convention: one-sixth of the region extent on that axis.
func NewTruncGaussian(region geom.Rect, sigmaX, sigmaY float64) (*Product, error) {
	if err := region.Validate(); err != nil {
		return nil, err
	}
	if region.Area() == 0 {
		return nil, fmt.Errorf("pdf: Gaussian needs a non-degenerate region, got %v", region)
	}
	if sigmaX <= 0 {
		sigmaX = region.Width() / 6
	}
	if sigmaY <= 0 {
		sigmaY = region.Height() / 6
	}
	c := region.Center()
	x, err := NewTruncNormalMarginal(region.Lo.X, region.Hi.X, c.X, sigmaX)
	if err != nil {
		return nil, err
	}
	y, err := NewTruncNormalMarginal(region.Lo.Y, region.Hi.Y, c.Y, sigmaY)
	if err != nil {
		return nil, err
	}
	return NewProduct(x, y), nil
}

// UniformSupport reports whether d is the uniform product over a
// rectangle — a Product whose two marginals are UniformMarginals — and
// returns that rectangle, its support. Such a pdf is a function of its
// support alone.
func UniformSupport(d PDF) (geom.Rect, bool) {
	p, ok := d.(*Product)
	if !ok {
		return geom.Rect{}, false
	}
	if _, ok := p.x.(*UniformMarginal); !ok {
		return geom.Rect{}, false
	}
	if _, ok := p.y.(*UniformMarginal); !ok {
		return geom.Rect{}, false
	}
	return p.support, true
}

// Support implements PDF.
func (p *Product) Support() geom.Rect { return p.support }

// At implements PDF.
func (p *Product) At(pt geom.Point) float64 {
	return p.x.At(pt.X) * p.y.At(pt.Y)
}

// MassIn implements PDF: for a separable pdf the mass inside a
// rectangle is the product of the per-axis masses.
func (p *Product) MassIn(r geom.Rect) float64 {
	mx, _ := p.x.PartialMoments(r.Lo.X, r.Hi.X)
	if mx == 0 {
		return 0
	}
	my, _ := p.y.PartialMoments(r.Lo.Y, r.Hi.Y)
	return mx * my
}

// Sample implements PDF.
func (p *Product) Sample(rng *rand.Rand) geom.Point {
	return geom.Pt(p.x.Sample(rng), p.y.Sample(rng))
}

// MarginalX implements Separable.
func (p *Product) MarginalX() Marginal { return p.x }

// MarginalY implements Separable.
func (p *Product) MarginalY() Marginal { return p.y }

var _ Separable = (*Product)(nil)
