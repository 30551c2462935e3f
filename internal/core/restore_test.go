package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
	"repro/internal/uncertain"
)

// sectionsCheckpoint builds a small durable engine — objects of every
// leafTestObject kind and points — closes it, which writes its
// checkpoint, and returns the checkpoint's bytes, its CURRENT file's,
// the decoded manifest and the objects and points it holds.
func sectionsCheckpoint(t testing.TB) (file, current []byte, m *manifest, objs []*uncertain.Object, pts []uncertain.PointObject) {
	t.Helper()
	dir := t.TempDir()
	e, err := Open(dir, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	objs, _ = leafTestWorld(t, 70, 41, false)
	rng := rand.New(rand.NewSource(42))
	batch := make([]Update, 0, len(objs)+60)
	for _, o := range objs {
		batch = append(batch, Update{Op: OpUpsertObject, Object: o})
	}
	for i := range 60 {
		p := uncertain.PointObject{ID: uncertain.ID(500 + i), Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)}
		pts = append(pts, p)
		batch = append(batch, Update{Op: OpUpsertPoint, Point: p})
	}
	if rep := e.ApplyUpdates(batch); len(rep.Errors) > 0 {
		t.Fatal(rep.Errors[0])
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	cur, _, err := readCurrent(dir)
	if err != nil {
		t.Fatal(err)
	}
	if file, err = os.ReadFile(filepath.Join(dir, cur.File)); err != nil {
		t.Fatal(err)
	}
	if current, err = os.ReadFile(filepath.Join(dir, currentFile)); err != nil {
		t.Fatal(err)
	}
	if m, err = decodeManifest(file[:storage.PageSize]); err != nil {
		t.Fatal(err)
	}
	return file, current, m, objs, pts
}

// openCheckpointCopy writes file as the live checkpoint of a fresh data
// directory and opens it.
func openCheckpointCopy(t *testing.T, file, current []byte) (*Engine, error) {
	t.Helper()
	dir := t.TempDir()
	var cur currentPointer
	if err := json.Unmarshal(current, &cur); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, cur.File), file, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, currentFile), current, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open(dir, durTestOptions())
}

// sectionBytes returns where section sm starts in the file and its
// length.
func sectionBytes(sm secMeta) (start, n int) {
	return int(sm.firstPage) * storage.PageSize, int(sm.bytes)
}

// f64Bytes is v's little-endian encoding, as the codecs write it.
func f64Bytes(v float64) []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
}

// TestOpenRefusesTableIndexMismatch: a checkpoint whose object or point
// table disagrees with its index — one coordinate of one row damaged
// on disk, which no decoder can see — is refused by Open, before any
// WAL replay, instead of serving one-shot answers from the index that
// disagree with the table and failing every later move of the object.
func TestOpenRefusesTableIndexMismatch(t *testing.T) {
	file, current, m, objs, pts := sectionsCheckpoint(t)
	if e, err := openCheckpointCopy(t, file, current); err != nil {
		t.Fatalf("undamaged checkpoint refused: %v", err)
	} else {
		e.Close()
	}

	// Object 7 is a leaf record: its record is its id and rectangle.
	o := objs[7]
	rec := appendLeafRecord(nil, o.ID, o.Region())
	start, n := sectionBytes(m.objects)
	at := bytes.Index(file[start:start+n], rec)
	if at < 0 {
		t.Fatal("object 7's record not in the objects section")
	}
	lox := bytes.Index(rec, f64Bytes(o.Region().Lo.X))
	if lox < 0 {
		t.Fatal("object 7's lo.x not in its record")
	}
	bad := bytes.Clone(file)
	bad[start+at+lox+5] ^= 0x02 // a mantissa bit: lo.x moves by a few units
	if _, err := openCheckpointCopy(t, bad, current); !errors.Is(err, errInconsistentCheckpoint) {
		t.Fatalf("object lo.x damaged: Open = %v, want %v", err, errInconsistentCheckpoint)
	}

	p := pts[11]
	start, n = sectionBytes(m.points)
	at = bytes.Index(file[start:start+n], uncertain.AppendPoint(nil, p))
	if at < 0 {
		t.Fatal("point 511's record not in the points section")
	}
	bad = bytes.Clone(file)
	bad[start+at+8+5] ^= 0x02 // the id, then x
	if _, err := openCheckpointCopy(t, bad, current); !errors.Is(err, errInconsistentCheckpoint) {
		t.Fatalf("point x damaged: Open = %v, want %v", err, errInconsistentCheckpoint)
	}
}

// FuzzCheckpointSections flips bytes anywhere in the data pages of a
// small checkpoint — tree pages, the points and the objects sections —
// and opens it. Open must refuse it with an error or yield an engine
// whose indexes are valid trees that agree with its tables; every
// object and point of such an engine can then be deleted, leaving
// both indexes empty. Never a panic.
func FuzzCheckpointSections(f *testing.F) {
	file, current, m, objs, _ := sectionsCheckpoint(f)
	data := len(file) - storage.PageSize // everything behind the manifest
	flip := func(offsets ...int) []byte {
		var in []byte
		for _, off := range offsets {
			in = binary.LittleEndian.AppendUint32(in, uint32(off-storage.PageSize))
			in = append(in, 0x02)
		}
		return in
	}
	f.Add([]byte{})
	start, _ := sectionBytes(m.objects)
	rec := appendLeafRecord(nil, objs[7].ID, objs[7].Region())
	if at := bytes.Index(file[start:], rec); at >= 0 {
		f.Add(flip(start + at + 20)) // inside object 7's rectangle
		f.Add(flip(start + at + len(rec) - 3))
	}
	start, _ = sectionBytes(m.points)
	f.Add(flip(start + 8 + 3)) // the first point's id
	uncTree := int(m.uncTree.firstPage) * storage.PageSize
	f.Add(flip(uncTree + 2)) // the root's entry count
	f.Add(flip(uncTree + 8)) // its first rectangle
	f.Add(flip(uncTree + storage.PageSize*int(m.uncTree.nodeCount-1) + 8 + 40 + 7))
	f.Add(flip(int(m.pointTree.firstPage)*storage.PageSize + 8 + 33))

	f.Fuzz(func(t *testing.T, in []byte) {
		bad := bytes.Clone(file)
		for i := 0; i+5 <= len(in) && i < 8*5; i += 5 {
			off := storage.PageSize + int(binary.LittleEndian.Uint32(in[i:])%uint32(data))
			x := in[i+4]
			if x == 0 {
				x = 1
			}
			bad[off] ^= x
		}
		e, err := openCheckpointCopy(t, bad, current)
		if err != nil {
			return
		}
		defer e.Close()
		st := e.state.Load()
		if err := st.checkRestored(); err != nil {
			t.Fatalf("accepted a checkpoint that fails its own check: %v", err)
		}
		checkPointIndex(t, "accepted", e)
		var all []Update
		st.objects.Range(func(id uncertain.ID, _ geom.Rect) bool {
			all = append(all, Update{Op: OpDeleteObject, ID: id})
			return true
		})
		st.points.Range(func(id uncertain.ID, _ uncertain.PointObject) bool {
			all = append(all, Update{Op: OpDeletePoint, ID: id})
			return true
		})
		rep := e.ApplyUpdates(all)
		if len(rep.Errors) > 0 || rep.Applied != len(all) {
			t.Fatalf("deleting everything an accepted checkpoint holds: applied %d of %d, %v",
				rep.Applied, len(all), rep.Errors)
		}
		if n, p := e.UncertainIndex().Tree().Len(), e.PointIndex().Len(); n != 0 || p != 0 {
			t.Fatalf("indexes hold %d objects and %d points after every delete", n, p)
		}
	})
}
