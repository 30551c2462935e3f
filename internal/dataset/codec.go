package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/geom"
)

// Binary dataset format (.ilq):
//
//	offset 0: magic "ILQD" (4 bytes)
//	offset 4: version byte (1)
//	offset 5: kind byte ('P' points, 'R' rectangles)
//	offset 6: reserved uint16 (0)
//	offset 8: uint64 record count
//	then records: points are 2 float64s, rectangles 4 float64s,
//	little endian.

const (
	codecMagic   = "ILQD"
	codecVersion = 1
	kindPoints   = 'P'
	kindRects    = 'R'
)

// Errors returned by the codec.
var (
	ErrBadMagic   = errors.New("dataset: bad magic (not an .ilq file)")
	ErrBadVersion = errors.New("dataset: unsupported format version")
	ErrBadKind    = errors.New("dataset: unexpected record kind")
)

// WritePoints serializes points to w.
func WritePoints(w io.Writer, pts []geom.Point) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindPoints, uint64(len(pts))); err != nil {
		return err
	}
	for _, p := range pts {
		if err := writeFloats(bw, p.X, p.Y); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxPrealloc caps the record capacity reserved up front, so a hostile
// header count cannot force a huge allocation: reading simply fails at
// the first missing record.
const maxPrealloc = 1 << 20

// ReadPoints deserializes points from r, refusing a non-finite
// coordinate.
func ReadPoints(r io.Reader) ([]geom.Point, error) {
	br := bufio.NewReader(r)
	n, err := readHeader(br, kindPoints)
	if err != nil {
		return nil, err
	}
	pts := make([]geom.Point, 0, min(n, maxPrealloc))
	for i := uint64(0); i < n; i++ {
		vals, err := readFloats(br, 2)
		if err != nil {
			return nil, fmt.Errorf("dataset: point %d: %w", i, err)
		}
		if !allFinite(vals) {
			return nil, fmt.Errorf("dataset: point %d: non-finite coordinate in %v", i, vals)
		}
		pts = append(pts, geom.Pt(vals[0], vals[1]))
	}
	return pts, nil
}

// WriteRects serializes rectangles to w.
func WriteRects(w io.Writer, rects []geom.Rect) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, kindRects, uint64(len(rects))); err != nil {
		return err
	}
	for _, rc := range rects {
		if err := writeFloats(bw, rc.Lo.X, rc.Lo.Y, rc.Hi.X, rc.Hi.Y); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadRects deserializes rectangles from r, validating each and
// refusing a non-finite coordinate.
func ReadRects(r io.Reader) ([]geom.Rect, error) {
	br := bufio.NewReader(r)
	n, err := readHeader(br, kindRects)
	if err != nil {
		return nil, err
	}
	rects := make([]geom.Rect, 0, min(n, maxPrealloc))
	for i := uint64(0); i < n; i++ {
		vals, err := readFloats(br, 4)
		if err != nil {
			return nil, fmt.Errorf("dataset: rect %d: %w", i, err)
		}
		if !allFinite(vals) {
			return nil, fmt.Errorf("dataset: rect %d: non-finite coordinate in %v", i, vals)
		}
		rc := geom.Rect{Lo: geom.Pt(vals[0], vals[1]), Hi: geom.Pt(vals[2], vals[3])}
		if err := rc.Validate(); err != nil {
			return nil, fmt.Errorf("dataset: rect %d: %w", i, err)
		}
		rects = append(rects, rc)
	}
	return rects, nil
}

// SavePointsFile writes points to path.
func SavePointsFile(path string, pts []geom.Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePoints(f, pts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadPointsFile reads points from path.
func LoadPointsFile(path string) ([]geom.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPoints(f)
}

// SaveRectsFile writes rectangles to path.
func SaveRectsFile(path string, rects []geom.Rect) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteRects(f, rects); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadRectsFile reads rectangles from path.
func LoadRectsFile(path string) ([]geom.Rect, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadRects(f)
}

func writeHeader(w io.Writer, kind byte, n uint64) error {
	if _, err := w.Write([]byte(codecMagic)); err != nil {
		return err
	}
	hdr := []byte{codecVersion, kind, 0, 0}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, n)
}

func readHeader(r io.Reader, wantKind byte) (uint64, error) {
	buf := make([]byte, 8)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, err
	}
	if string(buf[:4]) != codecMagic {
		return 0, ErrBadMagic
	}
	if buf[4] != codecVersion {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, buf[4])
	}
	if buf[5] != wantKind {
		return 0, fmt.Errorf("%w: have %q, want %q", ErrBadKind, buf[5], wantKind)
	}
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return 0, err
	}
	return n, nil
}

func writeFloats(w io.Writer, vals ...float64) error {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// allFinite reports whether no value is NaN or ±Inf: a coordinate in a
// dataset is a position, which neither is.
func allFinite(vals []float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func readFloats(r io.Reader, n int) ([]float64, error) {
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}
