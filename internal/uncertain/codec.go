package uncertain

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/pdf"
)

// Binary codec for objects, used by the durability layer (WAL update
// records and checkpoint object tables). Like the pdf codec it rides
// on, the contract is bit-exactness: a decoded object must evaluate
// identically to the one encoded, so the catalog's precomputed
// p-bounds are serialized verbatim rather than recomputed against the
// decoded pdf.

// ErrCodec is wrapped by every decode failure.
var ErrCodec = errors.New("uncertain: codec")

// maxCodecBounds guards catalog allocation on corrupt input; real
// catalogs carry ~10 bounds.
const maxCodecBounds = 1 << 16

// RestoreCatalog rebuilds a Catalog from previously serialized bounds
// (Catalog.Bounds output: ascending P, as NewCatalog produced them).
// The bounds are taken verbatim — no recomputation against the pdf —
// so a restored catalog prunes exactly like the original. The slice
// is copied.
func RestoreCatalog(bounds []Bound) Catalog {
	return Catalog{bounds: append([]Bound(nil), bounds...)}
}

// AppendPoint appends the binary encoding of a point object to buf.
func AppendPoint(buf []byte, p PointObject) []byte {
	buf = appendI64(buf, int64(p.ID))
	buf = appendF64(buf, p.Loc.X)
	return appendF64(buf, p.Loc.Y)
}

// DecodePoint decodes one point object from the front of b.
func DecodePoint(b []byte) (PointObject, []byte, error) {
	if len(b) < 24 {
		return PointObject{}, b, fmt.Errorf("%w: truncated point object", ErrCodec)
	}
	var p PointObject
	p.ID = ID(binary.LittleEndian.Uint64(b))
	p.Loc.X = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	p.Loc.Y = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
	return p, b[24:], nil
}

// AppendObject appends the binary encoding of an uncertain object to
// buf: id, pdf blob (length-prefixed), and the catalog's raw bounds.
func AppendObject(buf []byte, o *Object) ([]byte, error) {
	buf = appendI64(buf, int64(o.ID))
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // pdf blob length, patched below
	blob, err := pdf.AppendPDF(buf, o.PDF)
	if err != nil {
		return nil, fmt.Errorf("uncertain: encoding object %d: %w", o.ID, err)
	}
	buf = blob
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4))
	bounds := o.Catalog.Bounds()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(bounds)))
	for _, bd := range bounds {
		buf = appendF64(buf, bd.P)
		buf = appendF64(buf, bd.Left)
		buf = appendF64(buf, bd.Right)
		buf = appendF64(buf, bd.Bottom)
		buf = appendF64(buf, bd.Top)
	}
	return buf, nil
}

// DecodeObject decodes one uncertain object from the front of b,
// returning it and the remaining bytes.
func DecodeObject(b []byte) (*Object, []byte, error) {
	orig := b
	if len(b) < 12 {
		return nil, orig, fmt.Errorf("%w: truncated object header", ErrCodec)
	}
	id := ID(binary.LittleEndian.Uint64(b))
	blobLen := int(binary.LittleEndian.Uint32(b[8:]))
	b = b[12:]
	if blobLen < 0 || blobLen > len(b) {
		return nil, orig, fmt.Errorf("%w: object %d pdf blob length %d exceeds input", ErrCodec, id, blobLen)
	}
	p, rest, err := pdf.DecodePDF(b[:blobLen])
	if err != nil {
		return nil, orig, fmt.Errorf("uncertain: object %d: %w", id, err)
	}
	if len(rest) != 0 {
		return nil, orig, fmt.Errorf("%w: object %d: %d stray bytes after pdf", ErrCodec, id, len(rest))
	}
	b = b[blobLen:]
	if len(b) < 4 {
		return nil, orig, fmt.Errorf("%w: object %d truncated before catalog", ErrCodec, id)
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n > maxCodecBounds || n*40 > len(b) {
		return nil, orig, fmt.Errorf("%w: object %d catalog with %d bounds exceeds input", ErrCodec, id, n)
	}
	bounds := make([]Bound, n)
	for i := range bounds {
		bounds[i].P = f64At(b, 0)
		bounds[i].Left = f64At(b, 8)
		bounds[i].Right = f64At(b, 16)
		bounds[i].Bottom = f64At(b, 24)
		bounds[i].Top = f64At(b, 32)
		b = b[40:]
	}
	return &Object{ID: id, PDF: p, Catalog: Catalog{bounds: bounds}}, b, nil
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func f64At(b []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}
