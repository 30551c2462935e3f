package dataset

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/geom"
)

// FuzzReadPoints feeds arbitrary bytes to the dataset reader: it must
// return data or an error, never panic, and never allocate absurdly
// for hostile record counts (the reader streams records, so a huge
// declared count fails at the first missing record).
func FuzzReadPoints(f *testing.F) {
	var valid bytes.Buffer
	if err := WritePoints(&valid, []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("ILQD"))
	f.Add([]byte{})
	// Header declaring a huge count with no payload.
	huge := append([]byte("ILQD"), 1, 'P', 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	f.Add(huge)
	var nonFinite bytes.Buffer
	if err := WritePoints(&nonFinite, []geom.Point{{X: math.Inf(1), Y: math.NaN()}}); err != nil {
		f.Fatal(err)
	}
	f.Add(nonFinite.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := ReadPoints(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, p := range pts {
			if !finite(p.X, p.Y) {
				t.Fatalf("reader returned non-finite point %d: %v", i, p)
			}
		}
		// Whatever parsed must re-serialize and round trip.
		var buf bytes.Buffer
		if err := WritePoints(&buf, pts); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		back, err := ReadPoints(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(back) != len(pts) {
			t.Fatalf("round trip count %d != %d", len(back), len(pts))
		}
	})
}

// FuzzReadRects does the same for the rectangle reader, which
// additionally validates geometry: every rectangle it returns is valid
// and finite.
func FuzzReadRects(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteRects(&valid, []geom.Rect{{Lo: geom.Pt(0, 0), Hi: geom.Pt(1, 1)}}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("ILQD\x01R"))
	var nonFinite bytes.Buffer
	if err := WriteRects(&nonFinite, []geom.Rect{{Lo: geom.Pt(math.NaN(), 0), Hi: geom.Pt(1, 1)}}); err != nil {
		f.Fatal(err)
	}
	f.Add(nonFinite.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		rects, err := ReadRects(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range rects {
			if r.Validate() != nil || !finite(r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y) {
				t.Fatalf("reader returned invalid rect %d: %v", i, r)
			}
		}
	})
}

// finite reports whether every coordinate is a finite number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
