package pdf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
)

// Binary codec for the package's pdf types, used by the durability
// layer (WAL records and checkpoint object tables). The contract is
// bit-exactness: DecodePDF(AppendPDF(p)) must evaluate identically to
// p — same At, MassIn, and Sample outputs for every input — because
// recovery promises bit-identical query results. Types whose
// constructors normalize their inputs (Grid, Mixture,
// HistogramMarginal) therefore serialize their post-normalization
// private state verbatim instead of round-tripping through the
// constructor; types whose constructors are deterministic functions of
// the encoded fields (ConvexUniform) reuse them.
//
// Layout: one tag byte selects the concrete type; all integers are
// little-endian uint32, floats are IEEE-754 bits. Float slices are
// length-prefixed. The encoding has no framing of its own — the WAL
// record / checkpoint page carrying it provides length and checksum.

// Type tags. Stable on disk: append, never renumber.
const (
	tagProduct       = 1
	tagGrid          = 2
	tagMixture       = 3
	tagConvexUniform = 4

	tagUniformMarginal    = 1
	tagTruncNormMarginal  = 2
	tagHistogramMarginal  = 3
	maxCodecSliceElements = 1 << 24 // allocation guard on corrupt input
	maxMixtureDepth       = 16
)

// ErrCodec is wrapped by every decode failure.
var ErrCodec = errors.New("pdf: codec")

// AppendPDF appends the binary encoding of p to buf. Supported types
// are the package's own: Product (over the package's marginals), Grid,
// Mixture, and ConvexUniform.
func AppendPDF(buf []byte, p PDF) ([]byte, error) {
	return appendPDF(buf, p, 0)
}

func appendPDF(buf []byte, p PDF, depth int) ([]byte, error) {
	if depth > maxMixtureDepth {
		return nil, fmt.Errorf("%w: mixture nesting exceeds %d", ErrCodec, maxMixtureDepth)
	}
	switch v := p.(type) {
	case *Product:
		buf = append(buf, tagProduct)
		var err error
		if buf, err = appendMarginal(buf, v.x); err != nil {
			return nil, err
		}
		return appendMarginal(buf, v.y)
	case *Grid:
		buf = append(buf, tagGrid)
		buf = appendRect(buf, v.support)
		buf = appendU32(buf, uint32(v.nx))
		buf = appendU32(buf, uint32(v.ny))
		buf = appendFloats(buf, v.mass)
		return appendFloats(buf, v.cum), nil
	case *Mixture:
		buf = append(buf, tagMixture)
		buf = appendU32(buf, uint32(len(v.components)))
		var err error
		for _, c := range v.components {
			if buf, err = appendPDF(buf, c, depth+1); err != nil {
				return nil, err
			}
		}
		buf = appendFloats(buf, v.weights)
		buf = appendFloats(buf, v.cum)
		return appendRect(buf, v.support), nil
	case *ConvexUniform:
		buf = append(buf, tagConvexUniform)
		buf = appendU32(buf, uint32(len(v.poly)))
		for _, pt := range v.poly {
			buf = appendF64(buf, pt.X)
			buf = appendF64(buf, pt.Y)
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("%w: unsupported pdf type %T", ErrCodec, p)
	}
}

// DecodePDF decodes one pdf from the front of b, returning it and the
// remaining bytes. Decoding validates structure (tags, lengths, the
// invariants the evaluators rely on) but trusts float values — the
// carrying frame is checksummed.
func DecodePDF(b []byte) (PDF, []byte, error) {
	d := &decoder{b: b}
	p := d.pdf(0)
	if d.err != nil {
		return nil, b, d.err
	}
	return p, d.b, nil
}

func appendMarginal(buf []byte, m Marginal) ([]byte, error) {
	switch v := m.(type) {
	case *UniformMarginal:
		buf = append(buf, tagUniformMarginal)
		buf = appendF64(buf, v.lo)
		return appendF64(buf, v.hi), nil
	case *TruncNormalMarginal:
		buf = append(buf, tagTruncNormMarginal)
		for _, f := range [...]float64{v.lo, v.hi, v.mu, v.sigma, v.z, v.cdfLo} {
			buf = appendF64(buf, f)
		}
		return buf, nil
	case *HistogramMarginal:
		buf = append(buf, tagHistogramMarginal)
		buf = appendFloats(buf, v.edges)
		buf = appendFloats(buf, v.cum)
		return appendFloats(buf, v.dens), nil
	default:
		return nil, fmt.Errorf("%w: unsupported marginal type %T", ErrCodec, m)
	}
}

// decoder is a sticky-error cursor over the encoded bytes.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCodec, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("truncated")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) floats() []float64 {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > maxCodecSliceElements || int(n)*8 > len(d.b) {
		d.fail("float slice length %d exceeds input", n)
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.f64()
	}
	return vs
}

func (d *decoder) rect() geom.Rect {
	var r geom.Rect
	r.Lo.X = d.f64()
	r.Lo.Y = d.f64()
	r.Hi.X = d.f64()
	r.Hi.Y = d.f64()
	return r
}

func (d *decoder) pdf(depth int) PDF {
	if depth > maxMixtureDepth {
		d.fail("mixture nesting exceeds %d", maxMixtureDepth)
		return nil
	}
	switch tag := d.u8(); tag {
	case tagProduct:
		x := d.marginal()
		y := d.marginal()
		if d.err != nil {
			return nil
		}
		xlo, xhi := x.Bounds()
		ylo, yhi := y.Bounds()
		return &Product{x: x, y: y,
			support: geom.Rect{Lo: geom.Pt(xlo, ylo), Hi: geom.Pt(xhi, yhi)}}
	case tagGrid:
		support := d.rect()
		nx := int(d.u32())
		ny := int(d.u32())
		mass := d.floats()
		cum := d.floats()
		if d.err != nil {
			return nil
		}
		if nx < 1 || ny < 1 || nx*ny != len(mass) || len(cum) != nx*ny+1 {
			d.fail("grid shape %dx%d vs %d masses, %d cum", nx, ny, len(mass), len(cum))
			return nil
		}
		if err := support.Validate(); err != nil || support.Area() == 0 {
			d.fail("grid support %v invalid", support)
			return nil
		}
		return &Grid{support: support, nx: nx, ny: ny,
			cellW: support.Width() / float64(nx), cellH: support.Height() / float64(ny),
			mass: mass, cum: cum}
	case tagMixture:
		n := int(d.u32())
		if d.err != nil {
			return nil
		}
		if n < 1 || n > maxCodecSliceElements {
			d.fail("mixture with %d components", n)
			return nil
		}
		components := make([]PDF, 0, min(n, 1024))
		for i := 0; i < n; i++ {
			c := d.pdf(depth + 1)
			if d.err != nil {
				return nil
			}
			components = append(components, c)
		}
		weights := d.floats()
		cum := d.floats()
		support := d.rect()
		if d.err != nil {
			return nil
		}
		if len(weights) != n || len(cum) != n+1 {
			d.fail("mixture shape %d vs %d weights, %d cum", n, len(weights), len(cum))
			return nil
		}
		return &Mixture{components: components, weights: weights, cum: cum, support: support}
	case tagConvexUniform:
		n := int(d.u32())
		if d.err != nil {
			return nil
		}
		if n < 3 || n > maxCodecSliceElements || n*16 > len(d.b) {
			d.fail("polygon with %d vertices", n)
			return nil
		}
		poly := make(geom.Polygon, n)
		for i := range poly {
			poly[i].X = d.f64()
			poly[i].Y = d.f64()
		}
		if d.err != nil {
			return nil
		}
		// The constructor recomputes bounds and area from the vertices
		// exactly as the original construction did — bit-exact — and
		// re-validates convexity on the way.
		c, err := NewConvexUniform(poly)
		if err != nil {
			d.fail("convex polygon rejected: %v", err)
			return nil
		}
		return c
	default:
		d.fail("unknown pdf tag %d", tag)
		return nil
	}
}

func (d *decoder) marginal() Marginal {
	switch tag := d.u8(); tag {
	case tagUniformMarginal:
		lo := d.f64()
		hi := d.f64()
		if d.err != nil {
			return nil
		}
		if hi < lo || math.IsNaN(lo) || math.IsNaN(hi) {
			d.fail("uniform marginal [%g, %g]", lo, hi)
			return nil
		}
		return &UniformMarginal{lo: lo, hi: hi}
	case tagTruncNormMarginal:
		m := &TruncNormalMarginal{}
		m.lo = d.f64()
		m.hi = d.f64()
		m.mu = d.f64()
		m.sigma = d.f64()
		m.z = d.f64()
		m.cdfLo = d.f64()
		if d.err != nil {
			return nil
		}
		if m.hi <= m.lo || m.sigma <= 0 || m.z <= 0 {
			d.fail("truncated normal [%g, %g] sigma %g z %g", m.lo, m.hi, m.sigma, m.z)
			return nil
		}
		return m
	case tagHistogramMarginal:
		edges := d.floats()
		cum := d.floats()
		dens := d.floats()
		if d.err != nil {
			return nil
		}
		if len(edges) < 2 || len(cum) != len(edges) || len(dens) != len(edges)-1 {
			d.fail("histogram shape %d edges, %d cum, %d dens", len(edges), len(cum), len(dens))
			return nil
		}
		for i := 1; i < len(edges); i++ {
			if !(edges[i] > edges[i-1]) {
				d.fail("histogram edges not increasing at %d", i)
				return nil
			}
		}
		return &HistogramMarginal{edges: edges, cum: cum, dens: dens}
	default:
		d.fail("unknown marginal tag %d", tag)
		return nil
	}
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendFloats(b []byte, vs []float64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendF64(b, v)
	}
	return b
}

func appendRect(b []byte, r geom.Rect) []byte {
	b = appendF64(b, r.Lo.X)
	b = appendF64(b, r.Lo.Y)
	b = appendF64(b, r.Hi.X)
	return appendF64(b, r.Hi.Y)
}
