// Package uncertain implements the paper's data model (§3.1): point
// objects with exact locations, uncertain objects with an uncertainty
// region plus pdf, and the pre-computed probability bounds ("p-bounds",
// §5.1) collected into U-catalogs that power threshold-based pruning.
//
// A p-bound of an object Oi is four lines li(p), ri(p), ti(p), bi(p):
// the probability of Oi lying left of li(p) is exactly p, and likewise
// for the other three sides. The U-catalog is a small sorted table of
// {p, p-bound} rows kept with each object (and aggregated inside PTI
// index nodes).
package uncertain

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/pdf"
)

// ID identifies an object within one database.
type ID int64

// PointObject is an object whose location is known exactly (paper's
// S_i), e.g. a shop, school, or parked vehicle.
type PointObject struct {
	ID  ID
	Loc geom.Point
}

// Object is an uncertain object (paper's O_i): a location pdf over a
// rectangular uncertainty region, with an optional pre-computed
// U-catalog.
type Object struct {
	ID      ID
	PDF     pdf.PDF
	Catalog Catalog
}

// NewObject builds an uncertain object with a U-catalog at the given
// probability values (see DefaultCatalogProbs). A nil or empty probs
// slice produces an object without a catalog; such objects cannot
// participate in threshold pruning but evaluate identically otherwise.
func NewObject(id ID, p pdf.PDF, probs []float64) (*Object, error) {
	if p == nil {
		return nil, errors.New("uncertain: nil pdf")
	}
	o := &Object{ID: id, PDF: p}
	if len(probs) > 0 {
		cat, err := NewCatalog(p, probs)
		if err != nil {
			return nil, fmt.Errorf("object %d: %w", id, err)
		}
		o.Catalog = cat
	}
	return o, nil
}

// Region returns the object's uncertainty region Ui.
func (o *Object) Region() geom.Rect { return o.PDF.Support() }

// Bound is one U-catalog row: the four p-bound lines at probability P.
//
// Left is li(P): the mass of the object strictly left of Left is P.
// Right is ri(P): the mass right of Right is P. Bottom/Top follow the
// same convention on the Y axis. At P = 0 the four lines coincide with
// the uncertainty region boundary.
type Bound struct {
	P                        float64
	Left, Right, Bottom, Top float64
}

// Catalog is a U-catalog: an immutable table of Bounds sorted by
// ascending probability. The zero Catalog is empty and valid.
type Catalog struct {
	bounds []Bound
}

// DefaultCatalogProbs returns the n+1 evenly spaced probability values
// 0, 1/n, 2/n, ..., 1 used to build a U-catalog. The paper's
// experiments use ten p-bounds at 0, 0.1, ..., 0.9 (§6.1, and six
// values in §5.2's discussion); use DefaultCatalogProbs(10)[:10] for an
// exact match or any custom list.
func DefaultCatalogProbs(n int) []float64 {
	if n < 1 {
		n = 1
	}
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		out[i] = float64(i) / float64(n)
	}
	return out
}

// PaperCatalogProbs returns the ten values 0, 0.1, ..., 0.9 from the
// paper's experimental setup.
func PaperCatalogProbs() []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = float64(i) / 10
	}
	return out
}

// NewCatalog computes p-bounds for each requested probability value.
// Values must lie in [0, 1]; duplicates are collapsed.
func NewCatalog(p pdf.PDF, probs []float64) (Catalog, error) {
	if p == nil {
		return Catalog{}, errors.New("uncertain: nil pdf")
	}
	uniq := append([]float64(nil), probs...)
	sort.Float64s(uniq)
	out := make([]Bound, 0, len(uniq))
	for i, v := range uniq {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return Catalog{}, fmt.Errorf("uncertain: catalog probability %g out of [0, 1]", v)
		}
		if i > 0 && v == uniq[i-1] {
			continue
		}
		out = append(out, ComputeBound(p, v))
	}
	return Catalog{bounds: out}, nil
}

// ComputeBound computes the p-bound of a pdf at probability v. For
// separable pdfs the bound comes from exact marginal inverse CDFs;
// otherwise each line is located by bisection on rectangle mass, which
// only requires the PDF interface.
func ComputeBound(p pdf.PDF, v float64) Bound {
	if region, ok := pdf.UniformSupport(p); ok {
		return UniformBound(region, v)
	}
	if s, ok := p.(pdf.Separable); ok {
		mx, my := s.MarginalX(), s.MarginalY()
		return Bound{
			P:      v,
			Left:   mx.InvCDF(v),
			Right:  mx.InvCDF(1 - v),
			Bottom: my.InvCDF(v),
			Top:    my.InvCDF(1 - v),
		}
	}
	sup := p.Support()
	massLeftOf := func(x float64) float64 {
		return p.MassIn(geom.Rect{Lo: sup.Lo, Hi: geom.Pt(x, sup.Hi.Y)})
	}
	massBelow := func(y float64) float64 {
		return p.MassIn(geom.Rect{Lo: sup.Lo, Hi: geom.Pt(sup.Hi.X, y)})
	}
	return Bound{
		P:      v,
		Left:   bisect(massLeftOf, sup.Lo.X, sup.Hi.X, v),
		Right:  bisect(massLeftOf, sup.Lo.X, sup.Hi.X, 1-v),
		Bottom: bisect(massBelow, sup.Lo.Y, sup.Hi.Y, v),
		Top:    bisect(massBelow, sup.Lo.Y, sup.Hi.Y, 1-v),
	}
}

// UniformBound is ComputeBound for the uniform pdf over region: each
// line moves in from region's edge by v of its extent, l(v) = Lo.X +
// v·(Hi.X − Lo.X), computed by the UniformMarginal.InvCDF calls
// ComputeBound makes on that pdf's marginals. A bound computed from a
// rectangle alone — a PTI leaf entry's — is therefore the catalog row
// of the uniform object over it, bit for bit.
func UniformBound(region geom.Rect, v float64) Bound {
	mx, my := pdf.UniformOn(region.Lo.X, region.Hi.X), pdf.UniformOn(region.Lo.Y, region.Hi.Y)
	return Bound{
		P:      v,
		Left:   mx.InvCDF(v),
		Right:  mx.InvCDF(1 - v),
		Bottom: my.InvCDF(v),
		Top:    my.InvCDF(1 - v),
	}
}

// bisect finds x in [lo, hi] with monotone f(x) ~= target.
func bisect(f func(float64) float64, lo, hi, target float64) float64 {
	if target <= 0 {
		return lo
	}
	if target >= 1 {
		return hi
	}
	width := hi - lo
	for i := 0; i < 100 && hi-lo > 1e-12*width+1e-300; i++ {
		mid := (lo + hi) / 2
		if f(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Len returns the number of catalog rows.
func (c Catalog) Len() int { return len(c.bounds) }

// Bounds returns the catalog rows in ascending probability order.
// The returned slice must not be modified.
func (c Catalog) Bounds() []Bound { return c.bounds }

// MaxLE returns the catalog row with the largest probability value
// M <= q, the lookup prescribed by §5.1 ("use the maximum value M in
// the U-catalog such that M <= Qp"). ok is false if every row
// exceeds q or the catalog is empty.
func (c Catalog) MaxLE(q float64) (Bound, bool) {
	// bounds is sorted ascending; find the last P <= q.
	i := sort.Search(len(c.bounds), func(i int) bool { return c.bounds[i].P > q })
	if i == 0 {
		return Bound{}, false
	}
	return c.bounds[i-1], true
}
