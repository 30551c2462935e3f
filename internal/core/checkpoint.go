package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/index/pti"
	"repro/internal/index/rtree"
	"repro/internal/storage"
	"repro/internal/uncertain"
)

// Checkpoint file format. A checkpoint serializes one pinned sealed
// engine state into a paged file (storage.PageSize pages). The writer
// fills one page buffer and appends pages in file order, each written
// exactly once, the manifest last (see pageAppender):
//
//	page 0:          manifest (see encodeManifest)
//	point-tree pages: one R-tree node per page, rtree.EncodeNodePage
//	                  layout, nodes in Walk (preorder) order with ids
//	                  densely remapped to 0..n-1 (root = 0)
//	PTI pages:        same, with the catalog aux payload
//	points section:   byte stream across pages: u64 count, then each
//	                  point object (uncertain.AppendPoint)
//	objects section:  byte stream across pages: u64 count, then each
//	                  uncertain object (uncertain.AppendObject)
//
// The dense id remap is what makes loading store-agnostic: a fresh
// node store allocates ids sequentially from 0, so re-allocating
// nodes in page order reproduces exactly the ids the remapped child
// pointers reference.
//
// The file is written under a .tmp name, synced, and renamed; the
// CURRENT file (JSON, also written via temp+rename) names the live
// checkpoint. A crash mid-checkpoint therefore leaves CURRENT
// pointing at the previous complete checkpoint.

const (
	ckptMagic  = "ILDQCKP1"
	ckptFormat = 1
	// currentFile points at the live checkpoint inside the data dir.
	currentFile = "CURRENT"
)

// checkpointDevice is the store a checkpoint file is written to or
// read from: a paged store that can be forced to stable media and
// closed. storage.FileStore is the production implementation; tests
// inject faulting wrappers to crash checkpoints at chosen pages.
type checkpointDevice interface {
	storage.Store
	Sync() error
	Close() error
}

// openFileDevice is the production checkpointDevice constructor.
func openFileDevice(path string) (checkpointDevice, error) {
	return storage.OpenFileStore(path)
}

// treeMeta locates one serialized tree inside the checkpoint file.
type treeMeta struct {
	firstPage  uint32
	nodeCount  uint32
	rootIndex  uint32
	height     uint32
	size       uint64
	maxEntries uint32
	minEntries uint32
	auxLen     uint32
}

// secMeta locates one byte-stream section.
type secMeta struct {
	firstPage uint32
	pages     uint32
	bytes     uint64
	count     uint64
}

// manifest is the decoded page-0 header.
type manifest struct {
	version   uint64
	probs     []float64
	pointTree treeMeta
	uncTree   treeMeta
	points    secMeta
	objects   secMeta
}

// pageAppender writes a checkpoint's pages in file order: every page
// is filled in the one buffer, then allocated and written exactly
// once — a write-once sequential stream has no use for a cache.
type pageAppender struct {
	dev  checkpointDevice
	page []byte // the page being filled; zeroed after every append
	next uint32 // the id the next allocated page must get
}

// append writes the buffer as the device's next page and clears it.
func (a *pageAppender) append() error {
	id, err := a.dev.Allocate()
	if err != nil {
		return err
	}
	if uint32(id) != a.next {
		return fmt.Errorf("core: checkpoint pages not sequential (page %d, want %d)", id, a.next)
	}
	if err := a.dev.WritePage(id, a.page); err != nil {
		return err
	}
	clear(a.page)
	a.next++
	return nil
}

// writeCheckpoint serializes st into dev. The state is sealed and
// immutable, so this runs concurrently with writers publishing new
// versions. ctx is checked between sections and page runs.
func writeCheckpoint(ctx context.Context, dev checkpointDevice, st *engineState) (pages int, err error) {
	// Reserve page 0 for the manifest, written after the sections so
	// their placement is known.
	id0, err := dev.Allocate()
	if err != nil {
		return 0, err
	}
	if id0 != 0 {
		return 0, fmt.Errorf("core: checkpoint device not fresh (first page %d)", id0)
	}
	a := &pageAppender{dev: dev, page: make([]byte, storage.PageSize), next: 1}

	m := manifest{version: st.version, probs: st.probs}
	if m.pointTree, err = writeTreeSection(ctx, a, st.pointIdx); err != nil {
		return 0, fmt.Errorf("core: checkpointing point index: %w", err)
	}
	if m.uncTree, err = writeTreeSection(ctx, a, st.uncIdx.Tree()); err != nil {
		return 0, fmt.Errorf("core: checkpointing PTI: %w", err)
	}

	pw := &sectionWriter{a: a}
	var scratch [24]byte
	binary.LittleEndian.PutUint64(scratch[:8], uint64(st.points.Len()))
	pw.write(scratch[:8])
	st.points.Range(func(id uncertain.ID, p uncertain.PointObject) bool {
		pw.write(uncertain.AppendPoint(scratch[:0], p))
		return pw.err == nil
	})
	if m.points, err = pw.close(); err != nil {
		return 0, fmt.Errorf("core: checkpointing point table: %w", err)
	}
	m.points.count = uint64(st.points.Len())

	if err := ctx.Err(); err != nil {
		return 0, err
	}
	ow := &sectionWriter{a: a}
	binary.LittleEndian.PutUint64(scratch[:8], uint64(st.objects.Len()))
	ow.write(scratch[:8])
	var objBuf []byte
	st.objects.Range(func(id uncertain.ID, o *uncertain.Object) bool {
		objBuf, err = uncertain.AppendObject(objBuf[:0], o)
		if err != nil {
			ow.err = err
			return false
		}
		ow.write(objBuf)
		return ow.err == nil
	})
	if m.objects, err = ow.close(); err != nil {
		return 0, fmt.Errorf("core: checkpointing object table: %w", err)
	}
	m.objects.count = uint64(st.objects.Len())

	// Manifest last.
	encodeManifest(a.page, &m)
	if err := dev.WritePage(0, a.page); err != nil {
		return 0, err
	}
	if err := dev.Sync(); err != nil {
		return 0, err
	}
	return dev.NumPages(), nil
}

// writeTreeSection serializes t's nodes, one per page, ids densely
// remapped in Walk order.
func writeTreeSection(ctx context.Context, a *pageAppender, t *rtree.Tree) (treeMeta, error) {
	var meta treeMeta
	cfg := t.Config()
	meta.height = uint32(t.Height())
	meta.size = uint64(t.Len())
	meta.maxEntries = uint32(cfg.MaxEntries)
	meta.minEntries = uint32(cfg.MinEntries)
	meta.auxLen = uint32(cfg.AuxLen)

	var order []*rtree.Node
	remap := make(map[rtree.NodeID]uint32)
	if err := t.Walk(func(n *rtree.Node, level int) error {
		remap[n.ID] = uint32(len(order))
		order = append(order, n)
		return nil
	}); err != nil {
		return meta, err
	}
	meta.nodeCount = uint32(len(order))
	meta.rootIndex = 0 // Walk is preorder from the root

	cp := &rtree.Node{}
	for i, n := range order {
		if i%64 == 0 {
			if err := ctx.Err(); err != nil {
				return meta, err
			}
		}
		if i == 0 {
			meta.firstPage = a.next
		}
		cp.ID = rtree.NodeID(i)
		cp.Leaf = n.Leaf
		cp.Entries = append(cp.Entries[:0], n.Entries...)
		cp.Aux = n.Aux
		if !n.Leaf {
			for j := range cp.Entries {
				nid, ok := remap[cp.Entries[j].Child]
				if !ok {
					return meta, fmt.Errorf("core: checkpoint: node %d references unvisited child %d",
						n.ID, cp.Entries[j].Child)
				}
				cp.Entries[j].Child = rtree.NodeID(nid)
			}
		}
		if err := rtree.EncodeNodePage(cp, a.page, cfg.AuxLen); err != nil {
			return meta, err
		}
		if err := a.append(); err != nil {
			return meta, err
		}
	}
	return meta, nil
}

// sectionWriter streams a byte section across consecutive pages.
// Errors are sticky; close reports them with the section's placement.
type sectionWriter struct {
	a    *pageAppender
	meta secMeta
	off  int // fill offset in a.page; 0 means no page is open
	err  error
}

func (w *sectionWriter) write(p []byte) {
	for len(p) > 0 && w.err == nil {
		if w.off == 0 {
			if w.meta.pages == 0 {
				w.meta.firstPage = w.a.next
			}
			w.meta.pages++
		}
		n := copy(w.a.page[w.off:], p)
		w.off += n
		w.meta.bytes += uint64(n)
		p = p[n:]
		if w.off == storage.PageSize {
			w.err = w.a.append()
			w.off = 0
		}
	}
}

func (w *sectionWriter) close() (secMeta, error) {
	if w.off > 0 && w.err == nil {
		w.err = w.a.append()
	}
	return w.meta, w.err
}

// encodeManifest fills the 4 KiB manifest page: magic, format,
// version, catalog probs, both tree metas, both section metas, and a
// trailing CRC32C over everything before it.
func encodeManifest(page []byte, m *manifest) {
	clear(page)
	off := copy(page, ckptMagic)
	off = putU32(page, off, ckptFormat)
	off = putU64(page, off, m.version)
	off = putU32(page, off, uint32(len(m.probs)))
	for _, p := range m.probs {
		off = putU64(page, off, math.Float64bits(p))
	}
	for _, tm := range []treeMeta{m.pointTree, m.uncTree} {
		off = putU32(page, off, tm.firstPage)
		off = putU32(page, off, tm.nodeCount)
		off = putU32(page, off, tm.rootIndex)
		off = putU32(page, off, tm.height)
		off = putU64(page, off, tm.size)
		off = putU32(page, off, tm.maxEntries)
		off = putU32(page, off, tm.minEntries)
		off = putU32(page, off, tm.auxLen)
	}
	for _, sm := range []secMeta{m.points, m.objects} {
		off = putU32(page, off, sm.firstPage)
		off = putU32(page, off, sm.pages)
		off = putU64(page, off, sm.bytes)
		off = putU64(page, off, sm.count)
	}
	crc := crc32.Checksum(page[:off], crc32.MakeTable(crc32.Castagnoli))
	putU32(page, off, crc)
}

// decodeManifest parses and validates the manifest page.
func decodeManifest(page []byte) (*manifest, error) {
	if string(page[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("core: not a checkpoint file (bad magic)")
	}
	off := len(ckptMagic)
	format := getU32(page, &off)
	if format != ckptFormat {
		return nil, fmt.Errorf("core: checkpoint format %d not supported", format)
	}
	m := &manifest{}
	m.version = getU64(page, &off)
	nprobs := getU32(page, &off)
	if nprobs > 1024 || len(ckptMagic)+int(nprobs)*8+256 > len(page) {
		return nil, fmt.Errorf("core: checkpoint manifest with %d catalog probs", nprobs)
	}
	m.probs = make([]float64, nprobs)
	for i := range m.probs {
		m.probs[i] = math.Float64frombits(getU64(page, &off))
	}
	for _, tm := range []*treeMeta{&m.pointTree, &m.uncTree} {
		tm.firstPage = getU32(page, &off)
		tm.nodeCount = getU32(page, &off)
		tm.rootIndex = getU32(page, &off)
		tm.height = getU32(page, &off)
		tm.size = getU64(page, &off)
		tm.maxEntries = getU32(page, &off)
		tm.minEntries = getU32(page, &off)
		tm.auxLen = getU32(page, &off)
	}
	for _, sm := range []*secMeta{&m.points, &m.objects} {
		sm.firstPage = getU32(page, &off)
		sm.pages = getU32(page, &off)
		sm.bytes = getU64(page, &off)
		sm.count = getU64(page, &off)
	}
	want := binary.LittleEndian.Uint32(page[off:])
	crc := crc32.Checksum(page[:off], crc32.MakeTable(crc32.Castagnoli))
	if crc != want {
		return nil, fmt.Errorf("core: checkpoint manifest crc mismatch")
	}
	return m, nil
}

// errManifestExtent marks a manifest that passes its CRC but places a
// tree or section outside the file it heads. The CRC is a checksum,
// not a MAC: a damaged or misdirected manifest can still carry one.
var errManifestExtent = errors.New("core: checkpoint manifest extent outside file")

// checkExtents validates every placement the manifest makes against
// the file's page count, before the loader sizes a buffer or starts a
// read loop from them. Page 0 is the manifest itself.
func (m *manifest) checkExtents(numPages int) error {
	inFile := func(first, n uint32) bool {
		return n == 0 || first >= 1 && uint64(first)+uint64(n) <= uint64(numPages)
	}
	for _, tm := range []treeMeta{m.pointTree, m.uncTree} {
		if !inFile(tm.firstPage, tm.nodeCount) {
			return fmt.Errorf("%w: %d tree pages at %d in a %d-page file",
				errManifestExtent, tm.nodeCount, tm.firstPage, numPages)
		}
	}
	// A point record is 24 bytes; an object record is at least its id
	// and two length prefixes. Both streams open with a u64 count.
	for _, sm := range []struct {
		secMeta
		minRecord uint64
	}{{m.points, 24}, {m.objects, 16}} {
		if !inFile(sm.firstPage, sm.pages) || sm.bytes > uint64(sm.pages)*storage.PageSize ||
			sm.bytes < 8 || sm.count > (sm.bytes-8)/sm.minRecord {
			return fmt.Errorf("%w: section of %d records, %d bytes in %d pages at %d in a %d-page file",
				errManifestExtent, sm.count, sm.bytes, sm.pages, sm.firstPage, numPages)
		}
	}
	return nil
}

// loadCheckpoint reconstructs an engine state from a checkpoint file.
// opts supplies the node stores (which must be fresh — the dense id
// remap relies on sequential allocation from zero) and the point
// index config, which must match the checkpointed one.
func loadCheckpoint(path string, opts EngineOptions) (*engineState, error) {
	dev, err := openFileDevice(path)
	if err != nil {
		return nil, err
	}
	defer dev.Close()

	page := make([]byte, storage.PageSize)
	if err := dev.ReadPage(0, page); err != nil {
		return nil, err
	}
	m, err := decodeManifest(page)
	if err != nil {
		return nil, err
	}
	if err := m.checkExtents(dev.NumPages()); err != nil {
		return nil, err
	}

	if err := loadTreeNodes(dev, m.pointTree, opts.PointNodeStore); err != nil {
		return nil, fmt.Errorf("core: loading point index: %w", err)
	}
	pointIdx, err := rtree.Restore(opts.PointNodeStore, opts.PointIndexConfig,
		rtree.NodeID(m.pointTree.rootIndex), int(m.pointTree.height), int(m.pointTree.size))
	if err != nil {
		return nil, fmt.Errorf("core: restoring point index: %w", err)
	}
	if err := checkTreeConfig("point index", pointIdx, m.pointTree); err != nil {
		return nil, err
	}

	if err := loadTreeNodes(dev, m.uncTree, opts.UncertainNodeStore); err != nil {
		return nil, fmt.Errorf("core: loading PTI: %w", err)
	}
	uncIdx, err := pti.Restore(opts.UncertainNodeStore, m.probs,
		rtree.NodeID(m.uncTree.rootIndex), int(m.uncTree.height), int(m.uncTree.size))
	if err != nil {
		return nil, fmt.Errorf("core: restoring PTI: %w", err)
	}
	if err := checkTreeConfig("PTI", uncIdx.Tree(), m.uncTree); err != nil {
		return nil, err
	}

	pointsRaw, err := readSection(dev, m.points)
	if err != nil {
		return nil, fmt.Errorf("core: reading point table: %w", err)
	}
	points, err := decodePointTable(pointsRaw)
	if err != nil {
		return nil, err
	}
	objectsRaw, err := readSection(dev, m.objects)
	if err != nil {
		return nil, fmt.Errorf("core: reading object table: %w", err)
	}
	objects, err := decodeObjectTable(objectsRaw)
	if err != nil {
		return nil, err
	}

	return &engineState{
		seq:         1,
		version:     m.version,
		publishedAt: time.Now(),
		points:      points,
		pointIdx:    pointIdx,
		objects:     objects,
		uncIdx:      uncIdx,
		irregular:   irregularSet(objects, uncIdx.Probs()),
		probs:       m.probs,
		met:         newEngineMetrics(),
	}, nil
}

// checkTreeConfig guards against loading a checkpoint under a
// different index configuration: nodes packed for one capacity would
// silently violate the invariants of another on the next insert.
func checkTreeConfig(what string, t *rtree.Tree, m treeMeta) error {
	cfg := t.Config()
	if uint32(cfg.MaxEntries) != m.maxEntries || uint32(cfg.MinEntries) != m.minEntries ||
		uint32(cfg.AuxLen) != m.auxLen {
		return fmt.Errorf("core: %s config mismatch: checkpoint M=%d m=%d aux=%d, engine M=%d m=%d aux=%d",
			what, m.maxEntries, m.minEntries, m.auxLen, cfg.MaxEntries, cfg.MinEntries, cfg.AuxLen)
	}
	return nil
}

// loadTreeNodes re-allocates the checkpointed nodes into store in page
// order, reproducing the dense ids the remapped child pointers use.
func loadTreeNodes(dev storage.Store, m treeMeta, store rtree.NodeStore) error {
	buf := make([]byte, storage.PageSize)
	for i := 0; i < int(m.nodeCount); i++ {
		if err := dev.ReadPage(storage.PageID(m.firstPage)+storage.PageID(i), buf); err != nil {
			return err
		}
		dec, err := rtree.DecodeNodePage(rtree.NodeID(i), buf, int(m.auxLen))
		if err != nil {
			return err
		}
		n, err := store.Alloc(dec.Leaf)
		if err != nil {
			return err
		}
		if n.ID != rtree.NodeID(i) {
			return fmt.Errorf("core: checkpoint restore requires a fresh node store (allocated id %d, want %d)", n.ID, i)
		}
		n.Entries, n.Aux = dec.Entries, dec.Aux
		if err := store.Update(n); err != nil {
			return err
		}
	}
	return nil
}

// readSection reassembles a byte-stream section whose extent
// checkExtents has accepted.
func readSection(dev storage.Store, m secMeta) ([]byte, error) {
	out := make([]byte, 0, int(m.pages)*storage.PageSize)
	buf := make([]byte, storage.PageSize)
	for i := 0; i < int(m.pages); i++ {
		if err := dev.ReadPage(storage.PageID(m.firstPage)+storage.PageID(i), buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out[:m.bytes], nil
}

func decodePointTable(b []byte) (*cowTable[uncertain.PointObject], error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("core: truncated point table")
	}
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if n > uint64(len(b)/24) {
		return nil, fmt.Errorf("core: point table claims %d entries in %d bytes", n, len(b))
	}
	tab := newCowTable[uncertain.PointObject](int(n))
	for i := uint64(0); i < n; i++ {
		p, rest, err := uncertain.DecodePoint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		tab.put(p.ID, p)
	}
	return tab, nil
}

func decodeObjectTable(b []byte) (*cowTable[*uncertain.Object], error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("core: truncated object table")
	}
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if n > maxBatchUpdates {
		return nil, fmt.Errorf("core: object table claims %d entries", n)
	}
	tab := newCowTable[*uncertain.Object](int(n))
	for i := uint64(0); i < n; i++ {
		o, rest, err := uncertain.DecodeObject(b)
		if err != nil {
			return nil, err
		}
		b = rest
		tab.put(o.ID, o)
	}
	return tab, nil
}

// currentPointer is the JSON content of the CURRENT file.
type currentPointer struct {
	File    string    `json:"file"`
	Version uint64    `json:"version"`
	Written time.Time `json:"written"`
}

// writeCurrent atomically repoints CURRENT at file.
func writeCurrent(dir, file string, version uint64) error {
	data, err := json.Marshal(currentPointer{File: file, Version: version, Written: time.Now()})
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, currentFile+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, currentFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

// readCurrent returns the live checkpoint pointer, or ok=false when
// no checkpoint exists yet.
func readCurrent(dir string) (currentPointer, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, currentFile))
	if os.IsNotExist(err) {
		return currentPointer{}, false, nil
	}
	if err != nil {
		return currentPointer{}, false, err
	}
	var cur currentPointer
	if err := json.Unmarshal(data, &cur); err != nil {
		return currentPointer{}, false, fmt.Errorf("core: parsing %s: %w", currentFile, err)
	}
	if cur.File == "" || filepath.Base(cur.File) != cur.File {
		return currentPointer{}, false, fmt.Errorf("core: %s names invalid checkpoint file %q", currentFile, cur.File)
	}
	return cur, true, nil
}

// syncDir fsyncs a directory so renames inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func putU32(b []byte, off int, v uint32) int {
	binary.LittleEndian.PutUint32(b[off:], v)
	return off + 4
}

func putU64(b []byte, off int, v uint64) int {
	binary.LittleEndian.PutUint64(b[off:], v)
	return off + 8
}

func getU32(b []byte, off *int) uint32 {
	v := binary.LittleEndian.Uint32(b[*off:])
	*off += 4
	return v
}

func getU64(b []byte, off *int) uint64 {
	v := binary.LittleEndian.Uint64(b[*off:])
	*off += 8
	return v
}
