package dataset

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

func TestGeneratePointsDeterministic(t *testing.T) {
	cfg := PointConfig{N: 1000, Clusters: 8, ClusterSigma: 100, BackgroundFrac: 0.2, Seed: 7}
	a := GeneratePoints(cfg)
	b := GeneratePoints(cfg)
	if len(a) != 1000 {
		t.Fatalf("generated %d points", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
	cfg.Seed = 8
	c := GeneratePoints(cfg)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d identical points", same)
	}
}

func TestGeneratePointsInWorld(t *testing.T) {
	pts := GeneratePoints(PointConfig{N: 5000, Clusters: 10, ClusterSigma: 500, BackgroundFrac: 0.1, Seed: 9})
	world := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(Extent, Extent)}
	for _, p := range pts {
		if !world.Contains(p) {
			t.Fatalf("point %v outside world", p)
		}
	}
}

func TestGeneratePointsClustered(t *testing.T) {
	// Clustered output should be substantially more concentrated than
	// uniform: compare occupancy of a coarse grid.
	clustered := GeneratePoints(PointConfig{N: 20000, Clusters: 10, ClusterSigma: 150, BackgroundFrac: 0, Seed: 10})
	uniform := GeneratePoints(PointConfig{N: 20000, Clusters: 0, Seed: 10})
	occC := gridOccupancy(clustered, 20)
	occU := gridOccupancy(uniform, 20)
	if occC >= occU {
		t.Fatalf("clustered occupancy %d >= uniform %d; no skew generated", occC, occU)
	}
}

// gridOccupancy counts occupied cells of a k x k grid over the world.
func gridOccupancy(pts []geom.Point, k int) int {
	occ := make(map[int]bool)
	for _, p := range pts {
		ix := int(p.X / Extent * float64(k))
		iy := int(p.Y / Extent * float64(k))
		if ix >= k {
			ix = k - 1
		}
		if iy >= k {
			iy = k - 1
		}
		occ[iy*k+ix] = true
	}
	return len(occ)
}

func TestGenerateRects(t *testing.T) {
	cfg := LongBeachConfig()
	cfg.N = 3000
	rects := GenerateRects(cfg)
	world := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(Extent, Extent)}
	var meanW float64
	for _, r := range rects {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if !world.ContainsRect(r) {
			t.Fatalf("rect %v outside world", r)
		}
		if r.Width() < 2*cfg.MinHalf-1e-9 || r.Width() > 2*cfg.MaxHalf+1e-9 {
			t.Fatalf("rect width %g outside clamps", r.Width())
		}
		meanW += r.Width()
	}
	meanW /= float64(len(rects))
	// Exponential with mean 20 clamps to roughly ~2*19 width on
	// average; just check the scale is sane.
	if meanW < 10 || meanW > 100 {
		t.Fatalf("mean width %g implausible", meanW)
	}
}

func TestPaperConfigs(t *testing.T) {
	if c := CaliforniaConfig(); c.N != CaliforniaSize {
		t.Fatalf("California N = %d", c.N)
	}
	if c := LongBeachConfig(); c.N != LongBeachSize {
		t.Fatalf("Long Beach N = %d", c.N)
	}
}

func TestBuildObjects(t *testing.T) {
	rects := GenerateRects(RectConfig{
		N: 50, Clusters: 3, ClusterSigma: 100, MeanHalfW: 10, MeanHalfH: 10,
		MinHalf: 1, MaxHalf: 50, Seed: 11,
	})
	probs := uncertain.PaperCatalogProbs()
	for _, kind := range []PDFKind{PDFUniform, PDFGaussian} {
		objs, err := BuildUncertainObjects(rects, kind, probs)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(objs) != 50 {
			t.Fatalf("%v: %d objects", kind, len(objs))
		}
		for i, o := range objs {
			if o.ID != uncertain.ID(i) {
				t.Fatalf("%v: object %d has id %d", kind, i, o.ID)
			}
			if !o.Region().ApproxEqual(rects[i]) {
				t.Fatalf("%v: region mismatch at %d", kind, i)
			}
			if got := o.PDF.MassIn(o.Region()); math.Abs(got-1) > 1e-9 {
				t.Fatalf("%v: object %d mass %g", kind, i, got)
			}
			if o.Catalog.Len() != len(probs) {
				t.Fatalf("%v: object %d catalog size %d", kind, i, o.Catalog.Len())
			}
		}
	}
	if _, err := BuildUncertainObjects(rects, PDFKind(99), probs); err == nil {
		t.Fatal("unknown pdf kind accepted")
	}
	pts := GeneratePoints(PointConfig{N: 20, Seed: 12})
	pobjs := BuildPointObjects(pts)
	if len(pobjs) != 20 || pobjs[3].Loc != pts[3] {
		t.Fatal("BuildPointObjects mismatch")
	}
}

func TestPointCodecRoundTrip(t *testing.T) {
	pts := GeneratePoints(PointConfig{N: 777, Clusters: 4, ClusterSigma: 50, Seed: 13})
	var buf bytes.Buffer
	if err := WritePoints(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPoints(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("round trip %d of %d points", len(got), len(pts))
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatalf("point %d mismatch", i)
		}
	}
}

func TestRectCodecRoundTrip(t *testing.T) {
	rects := GenerateRects(RectConfig{
		N: 333, Clusters: 4, ClusterSigma: 80, MeanHalfW: 15, MeanHalfH: 10,
		MinHalf: 1, MaxHalf: 60, Seed: 14,
	})
	var buf bytes.Buffer
	if err := WriteRects(&buf, rects); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRects(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rects) {
		t.Fatalf("round trip %d of %d rects", len(got), len(rects))
	}
	for i := range rects {
		if got[i] != rects[i] {
			t.Fatalf("rect %d mismatch", i)
		}
	}
}

func TestCodecErrors(t *testing.T) {
	// Bad magic.
	if _, err := ReadPoints(bytes.NewReader([]byte("NOPE0000????????"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	// Wrong kind: write rects, read points.
	var buf bytes.Buffer
	if err := WriteRects(&buf, []geom.Rect{{Lo: geom.Pt(0, 0), Hi: geom.Pt(1, 1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPoints(&buf); !errors.Is(err, ErrBadKind) {
		t.Fatalf("kind mismatch: %v", err)
	}
	// Bad version.
	raw := []byte(codecMagic)
	raw = append(raw, 99, kindPoints, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if _, err := ReadPoints(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
	// Truncated payload.
	var buf2 bytes.Buffer
	if err := WritePoints(&buf2, GeneratePoints(PointConfig{N: 10, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	trunc := buf2.Bytes()[:buf2.Len()-9]
	if _, err := ReadPoints(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Invalid rectangle content.
	var buf3 bytes.Buffer
	if err := writeHeader(&buf3, kindRects, 1); err != nil {
		t.Fatal(err)
	}
	if err := writeFloats(&buf3, 5, 5, 1, 1); err != nil { // Lo > Hi
		t.Fatal(err)
	}
	if _, err := ReadRects(&buf3); err == nil {
		t.Fatal("invalid rect accepted")
	}
	// Non-finite coordinates, refused with the record named.
	nan, inf := math.NaN(), math.Inf(1)
	var pbuf bytes.Buffer
	if err := WritePoints(&pbuf, []geom.Point{{X: 1, Y: 2}, {X: inf, Y: nan}}); err != nil {
		t.Fatal(err)
	}
	if pts, err := ReadPoints(&pbuf); err == nil || !strings.Contains(err.Error(), "point 1") {
		t.Fatalf("non-finite point: %v, %v", pts, err)
	}
	for _, r := range []geom.Rect{
		{Lo: geom.Pt(nan, 0), Hi: geom.Pt(1, 1)},
		{Lo: geom.Pt(0, 0), Hi: geom.Pt(inf, 1)},
		{Lo: geom.Pt(0, -inf), Hi: geom.Pt(1, 1)},
	} {
		var rbuf bytes.Buffer
		if err := WriteRects(&rbuf, []geom.Rect{{Hi: geom.Pt(1, 1)}, r}); err != nil {
			t.Fatal(err)
		}
		if rects, err := ReadRects(&rbuf); err == nil || !strings.Contains(err.Error(), "rect 1") {
			t.Fatalf("non-finite rect %v: %v, %v", r, rects, err)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pts := GeneratePoints(PointConfig{N: 100, Seed: 15})
	pPath := filepath.Join(dir, "points.ilq")
	if err := SavePointsFile(pPath, pts); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPointsFile(pPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("loaded %d points", len(got))
	}
	rects := GenerateRects(RectConfig{N: 100, MeanHalfW: 5, MeanHalfH: 5, MinHalf: 1, MaxHalf: 20, Seed: 16})
	rPath := filepath.Join(dir, "rects.ilq")
	if err := SaveRectsFile(rPath, rects); err != nil {
		t.Fatal(err)
	}
	gotR, err := LoadRectsFile(rPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotR) != 100 {
		t.Fatalf("loaded %d rects", len(gotR))
	}
	if _, err := LoadPointsFile(filepath.Join(dir, "missing.ilq")); err == nil {
		t.Fatal("missing file accepted")
	}
}
