package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/storage"
	"repro/internal/uncertain"
)

// testdata/format1/ holds a checkpoint written by the format-1 writer
// (every leaf entry's catalog rows on its PTI leaf page, every object
// encoded in full in the objects section) and its CURRENT file. It was
// written by Close of a durable engine that had applied
// format1Batches, and a reader must keep opening it: a data directory
// written before format 2 survives the upgrade.
const format1Dir = "testdata/format1"

// format1Batches is the update history the format-1 fixture holds:
// objects of every leafTestObject kind (leaf records and irregular
// objects) and points, then replaces and deletes of both, so the trees
// are churned rather than freshly packed.
func format1Batches(t testing.TB) [][]Update {
	t.Helper()
	objs, _ := leafTestWorld(t, 80, 43, false)
	rng := rand.New(rand.NewSource(44))
	load := make([]Update, 0, len(objs)+60)
	for _, o := range objs {
		load = append(load, Update{Op: OpUpsertObject, Object: o})
	}
	for i := range 60 {
		load = append(load, Update{Op: OpUpsertPoint, Point: uncertain.PointObject{
			ID: uncertain.ID(500 + i), Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)}})
	}
	batches := [][]Update{load}
	for b := range 4 {
		var batch []Update
		for range 12 {
			id := uncertain.ID(rng.Intn(len(objs)))
			c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			o, _ := leafTestObject(t, id, int(id)%leafKinds, c, 3+rng.Float64()*25, 3+rng.Float64()*25)
			batch = append(batch, Update{Op: OpUpsertObject, Object: o})
		}
		for range 8 {
			batch = append(batch, Update{Op: OpUpsertPoint, Point: uncertain.PointObject{
				ID: uncertain.ID(500 + rng.Intn(60)), Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)}})
		}
		batch = append(batch,
			Update{Op: OpDeleteObject, ID: uncertain.ID(7 + 11*b)},
			Update{Op: OpDeletePoint, ID: uncertain.ID(503 + 13*b)})
		batches = append(batches, batch)
	}
	return batches
}

// format1Requests is the fixed request set the fixture's answers are
// compared on: range queries over both databases, constrained and not
// (Monte-Carlo for the irregular objects, seeded), and NN.
func format1Requests(t testing.TB) []Request {
	t.Helper()
	var reqs []Request
	for i, c := range []geom.Point{geom.Pt(500, 500), geom.Pt(180, 820), geom.Pt(900, 120)} {
		iss, err := uncertain.NewObject(-1, pdf.MustUniform(geom.RectCentered(c, 40+20*float64(i), 50)),
			uncertain.PaperCatalogProbs())
		if err != nil {
			t.Fatal(err)
		}
		for _, qp := range []float64{0, 0.1, 0.45} {
			u := RequestUncertain(iss, 180, 150, qp)
			u.Seed = int64(11 + i)
			reqs = append(reqs, u, RequestPoints(iss, 200, 200, qp))
		}
		nn := RequestNN(iss, 3)
		nn.Seed = int64(21 + i)
		reqs = append(reqs, nn)
	}
	return reqs
}

// requireSameEngines holds got to want: the same version, the same
// objects (encoded byte for byte) and points, and Float64bits-identical
// answers on format1Requests.
func requireSameEngines(t *testing.T, want, got *Engine) {
	t.Helper()
	if got.Version() != want.Version() || got.NumUncertain() != want.NumUncertain() || got.NumPoints() != want.NumPoints() {
		t.Fatalf("engine at version %d with %d objects and %d points, want %d, %d, %d",
			got.Version(), got.NumUncertain(), got.NumPoints(), want.Version(), want.NumUncertain(), want.NumPoints())
	}
	ws := want.state.Load()
	ws.objects.Range(func(id uncertain.ID, _ geom.Rect) bool {
		wo, _ := want.Object(id)
		o, ok := got.Object(id)
		if !ok {
			t.Fatalf("object %d missing", id)
		}
		a, err := uncertain.AppendObject(nil, wo)
		if err != nil {
			t.Fatal(err)
		}
		b, err := uncertain.AppendObject(nil, o)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("object %d differs", id)
		}
		return true
	})
	ws.points.Range(func(id uncertain.ID, p uncertain.PointObject) bool {
		q, ok := got.Point(id)
		if !ok || math.Float64bits(q.Loc.X) != math.Float64bits(p.Loc.X) || math.Float64bits(q.Loc.Y) != math.Float64bits(p.Loc.Y) {
			t.Fatalf("point %d = %v (present %t), want %v", id, q.Loc, ok, p.Loc)
		}
		return true
	})
	for i, req := range format1Requests(t) {
		wr, err := want.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := got.Evaluate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if len(wr.Matches) != len(gr.Matches) {
			t.Fatalf("request %d: %d matches, want %d", i, len(gr.Matches), len(wr.Matches))
		}
		for j, m := range wr.Matches {
			if g := gr.Matches[j]; g.ID != m.ID || math.Float64bits(g.P) != math.Float64bits(m.P) {
				t.Fatalf("request %d match %d: {%d %v}, want {%d %v}", i, j, g.ID, g.P, m.ID, m.P)
			}
		}
		if gr.Cost.Candidates != wr.Cost.Candidates {
			t.Fatalf("request %d: %d candidates, want %d", i, gr.Cost.Candidates, wr.Cost.Candidates)
		}
	}
}

// format1Fixture returns the committed format-1 checkpoint file and its
// CURRENT file.
func format1Fixture(t *testing.T) (file, current []byte) {
	t.Helper()
	current, err := os.ReadFile(filepath.Join(format1Dir, currentFile))
	if err != nil {
		t.Fatal(err)
	}
	cur, ok, err := readCurrent(format1Dir)
	if err != nil || !ok {
		t.Fatalf("readCurrent: ok=%v err=%v", ok, err)
	}
	if file, err = os.ReadFile(filepath.Join(format1Dir, cur.File)); err != nil {
		t.Fatal(err)
	}
	return file, current
}

// TestOpenFormat1Checkpoint opens the committed format-1 checkpoint and
// holds it to an engine that applied the same history now. The opened
// engine's leaves were sized for pages, below the engine's leaf
// underflow threshold: it then takes a batch that deletes and moves
// objects out of them, stays a valid tree, and writes a format-2
// checkpoint on Close that opens to the same engine again.
func TestOpenFormat1Checkpoint(t *testing.T) {
	file, current := format1Fixture(t)
	if format := fileFormat(file); format != 1 {
		t.Fatalf("fixture is format %d, want 1", format)
	}
	got, err := openCheckpointCopy(t, file, current)
	if err != nil {
		t.Fatalf("format-1 checkpoint refused: %v", err)
	}
	defer got.Close()
	want, err := NewEngine(nil, nil, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range format1Batches(t) {
		applyOK(t, want, batch)
	}
	requireSameEngines(t, want, got)

	rng := rand.New(rand.NewSource(45))
	var batch []Update
	for id := range uncertain.ID(80) {
		switch {
		case id%3 == 0:
			batch = append(batch, Update{Op: OpDeleteObject, ID: id})
		case id%3 == 1:
			c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			o, _ := leafTestObject(t, id, int(id)%leafKinds, c, 3+rng.Float64()*25, 3+rng.Float64()*25)
			batch = append(batch, Update{Op: OpUpsertObject, Object: o})
		}
	}
	applyOK(t, want, batch)
	applyOK(t, got, batch)
	if err := got.UncertainIndex().Tree().CheckInvariants(false); err != nil {
		t.Fatalf("format-1 tree after deletes and moves: %v", err)
	}
	requireSameEngines(t, want, got)

	dir := got.DurabilityStats().Dir
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
	cur, _, err := readCurrent(dir)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, err := os.ReadFile(filepath.Join(dir, cur.File))
	if err != nil {
		t.Fatal(err)
	}
	if format := fileFormat(rewritten); format != ckptFormat {
		t.Fatalf("checkpoint after the upgrade is format %d, want %d", format, ckptFormat)
	}
	reopened, err := Open(dir, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireSameEngines(t, want, reopened)
}

// fileFormat reads the format field of a checkpoint file's manifest.
func fileFormat(file []byte) uint32 {
	off := len(ckptMagic)
	return getU32(file, &off)
}

// TestOpenFormat1Refusals: a truncated or corrupted copy of the
// format-1 fixture is refused, not opened into a wrong engine.
func TestOpenFormat1Refusals(t *testing.T) {
	file, current := format1Fixture(t)
	m, err := decodeManifest(file[:storage.PageSize])
	if err != nil {
		t.Fatal(err)
	}
	flip := func(at int, mask byte) []byte {
		bad := bytes.Clone(file)
		bad[at] ^= mask
		return bad
	}
	uncLeaf := int(m.uncTree.firstPage+m.uncTree.nodeCount-1) * storage.PageSize
	start, _ := sectionBytes(m.objects)
	for _, c := range []struct {
		name string
		file []byte
		want error
	}{
		{"one page short", file[:len(file)-storage.PageSize], errManifestExtent},
		{"half the file", file[:len(file)/2/storage.PageSize*storage.PageSize], errManifestExtent},
		{"manifest version bit", flip(len(ckptMagic)+4, 0x01), nil},
		{"PTI leaf rectangle", flip(uncLeaf+8+5, 0x02), errInconsistentCheckpoint},
		{"first object's id", flip(start+8+1, 0x04), nil},
	} {
		e, err := openCheckpointCopy(t, c.file, current)
		if err == nil {
			e.Close()
			t.Errorf("%s: opened", c.name)
			continue
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: Open = %v, want %v", c.name, err, c.want)
		}
	}
}
