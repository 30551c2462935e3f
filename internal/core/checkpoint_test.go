package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/pdf"
	"repro/internal/storage"
	"repro/internal/uncertain"
)

// goldenCheckpointState builds the fixed engine state the checkpoint
// golden pins: seeded upserts (with replaces, so copy-on-write has
// churned the trees) in a durable engine rooted at dir.
func goldenCheckpointState(t testing.TB, dir string) *Engine {
	t.Helper()
	e, err := Open(dir, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2007))
	for b := 0; b < 100; b++ {
		batch := make([]Update, 0, 200)
		for i := 0; i < 100; i++ {
			batch = append(batch, Update{Op: OpUpsertPoint, Point: uncertain.PointObject{
				ID:  uncertain.ID(1 + rng.Intn(10000)),
				Loc: geom.Pt(rng.Float64()*10000, rng.Float64()*10000),
			}})
			c := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
			o, err := uncertain.NewObject(uncertain.ID(20000+rng.Intn(10000)),
				pdf.MustUniform(geom.RectCentered(c, 10+rng.Float64()*90, 10+rng.Float64()*90)),
				uncertain.PaperCatalogProbs())
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, Update{Op: OpUpsertObject, Object: o})
		}
		if rep := e.ApplyUpdates(batch); len(rep.Errors) > 0 {
			t.Fatal(rep.Errors[0])
		}
	}
	return e
}

// goldenCheckpointSHA256 is the sha256 of the format-2 checkpoint file
// of goldenCheckpointState (64-entry PTI leaves as (rectangle, id)
// cells, leaf records as id and rectangle in the objects section). The
// format-1 hash, recorded at commit 1b1e4ae from a writer that streamed
// through a 256-frame buffer pool, was
// 0be4efaa350e7557a2e87545e965a5f115435eb0ae8cd4bfe4fdae061f0418b3 for
// the 40 batches over 5 000 ids the state then held. A format change
// bumps ckptFormat and this constant together; nothing else may move
// it.
const goldenCheckpointSHA256 = "25a00d287592aad8096ba83980a1ea7e69943e6a48151d9f33574c7947eb1861"

// TestCheckpointFileGolden pins the checkpoint file byte for byte.
func TestCheckpointFileGolden(t *testing.T) {
	dir := t.TempDir()
	e := goldenCheckpointState(t, dir)
	defer e.Close()
	info, err := e.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The format-1 recording writer cached 256 pages: the state must
	// outgrow that for its evictions to be part of what the hash pins.
	if info.Pages < 300 {
		t.Fatalf("golden state checkpoints into %d pages, want >= 300", info.Pages)
	}
	cur, ok, err := readCurrent(dir)
	if err != nil || !ok {
		t.Fatalf("readCurrent: ok=%v err=%v", ok, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, cur.File))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != goldenCheckpointSHA256 {
		t.Fatalf("checkpoint file (%d pages, %v) sha256 = %s, want %s",
			info.Pages, info.Duration, got, goldenCheckpointSHA256)
	}
}

// FuzzCheckpointManifest feeds the loader's front door an arbitrary
// manifest page heading an n-page file. The trailer CRC is recomputed
// first (it is a checksum, not a MAC), so mutations reach the checks
// behind it. Either the manifest is rejected, or every extent it names
// lies inside the file — and then reading its sections and trees off a
// blank file of that size stays in bounds and sized by the file, not
// by the manifest's say-so. Never a panic.
func FuzzCheckpointManifest(f *testing.F) {
	dir := f.TempDir()
	e := goldenCheckpointState(f, dir)
	info, err := e.Checkpoint(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	cur, _, err := readCurrent(dir)
	if err != nil {
		f.Fatal(err)
	}
	e.Close()
	file, err := os.ReadFile(filepath.Join(dir, cur.File))
	if err != nil {
		f.Fatal(err)
	}
	real := file[:storage.PageSize]
	f.Add(real, uint32(info.Pages))
	f.Add(real, uint32(info.Pages-1)) // one page short: the last section overhangs
	// A section claiming 2^20 pages: a buffer sized from the field alone
	// would be a 4 GiB make() for a 357-page file.
	m, err := decodeManifest(real)
	if err != nil {
		f.Fatal(err)
	}
	m.points.pages = 1 << 20
	huge := make([]byte, storage.PageSize)
	encodeManifest(huge, m)
	f.Add(huge, uint32(info.Pages))
	f.Add(make([]byte, storage.PageSize), uint32(1))
	f.Add(real[:100], uint32(3))
	// The format-1 fixture's manifest, whole and with the file a page
	// short.
	v1, err := os.ReadFile(filepath.Join(format1Dir, "checkpoint-0000000000000005.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1[:storage.PageSize], uint32(len(v1)/storage.PageSize))
	f.Add(v1[:storage.PageSize], uint32(len(v1)/storage.PageSize-1))

	f.Fuzz(func(t *testing.T, in []byte, n uint32) {
		numPages := int(n % 1024)
		page := make([]byte, storage.PageSize)
		copy(page, in)
		treeMetaLen := 44
		if binary.LittleEndian.Uint32(page[8:]) == 1 {
			treeMetaLen = 36 // no leaf capacities
		}
		if nprobs := binary.LittleEndian.Uint32(page[20:]); nprobs <= 1024 {
			// magic, format, version, nprobs, probs, 2 tree metas, 2 section metas
			if off := 24 + int(nprobs)*8 + 2*treeMetaLen + 2*24; off+4 <= len(page) {
				crc := crc32.Checksum(page[:off], crc32.MakeTable(crc32.Castagnoli))
				binary.LittleEndian.PutUint32(page[off:], crc)
			}
		}
		m, err := decodeManifest(page)
		if err != nil {
			return
		}
		if err := m.checkExtents(numPages); err != nil {
			if !errors.Is(err, errManifestExtent) {
				t.Fatalf("untyped extent error: %v", err)
			}
			return
		}
		dev := storage.NewMemStore()
		for i := 0; i < numPages; i++ {
			dev.Allocate()
		}
		for _, tm := range []treeMeta{m.pointTree, m.uncTree} {
			node := m.treeNodes(dev, tm)
			for i := range tm.nodeCount {
				if _, err := node(rtree.NodeID(i)); err != nil {
					t.Fatalf("accepted tree extent %+v unreadable in a %d-page file: %v", tm, numPages, err)
				}
			}
		}
		for _, sm := range []secMeta{m.points, m.objects} {
			b, err := readSection(dev, sm)
			if err != nil || uint64(len(b)) != sm.bytes || cap(b) > numPages*storage.PageSize {
				t.Fatalf("accepted section extent %+v in a %d-page file: len %d cap %d err %v",
					sm, numPages, len(b), cap(b), err)
			}
		}
	})
}

// TestManifestExtentRejected walks checkExtents' refusals one field at
// a time from the smallest valid layout: a CRC-valid manifest whose
// placements leave the file is refused up front with the typed error.
func TestManifestExtentRejected(t *testing.T) {
	valid := manifest{
		pointTree: treeMeta{firstPage: 1, nodeCount: 1},
		uncTree:   treeMeta{firstPage: 2, nodeCount: 1},
		points:    secMeta{firstPage: 3, pages: 1, bytes: 8},
		objects:   secMeta{firstPage: 4, pages: 1, bytes: 8},
	}
	if err := valid.checkExtents(5); err != nil {
		t.Fatalf("minimal five-page layout rejected: %v", err)
	}
	for _, c := range []struct {
		name     string
		numPages int
		mutate   func(*manifest)
	}{
		{"file one page short", 4, func(*manifest) {}},
		{"section pages 2^20", 5, func(m *manifest) { m.points.pages = 1 << 20 }},
		{"tree on the manifest", 5, func(m *manifest) { m.pointTree.firstPage = 0 }},
		{"tree count wraps", 5, func(m *manifest) { m.uncTree.nodeCount = math.MaxUint32 }},
		{"bytes exceed the pages", 5, func(m *manifest) { m.objects.bytes = storage.PageSize + 1 }},
		{"count exceeds bytes", 5, func(m *manifest) { m.points.count = 1 }},
		{"no room for the count", 5, func(m *manifest) { m.objects.bytes = 7 }},
	} {
		bad := valid
		c.mutate(&bad)
		if err := bad.checkExtents(c.numPages); !errors.Is(err, errManifestExtent) {
			t.Errorf("%s: checkExtents = %v, want %v", c.name, err, errManifestExtent)
		}
	}
}
