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

	"repro/internal/geom"
	"repro/internal/index/pti"
	"repro/internal/index/rtree"
	"repro/internal/pdf"
	"repro/internal/storage"
	"repro/internal/uncertain"
)

// Checkpoint file format. A checkpoint serializes one pinned sealed
// engine state into a paged file (storage.PageSize pages). The writer
// fills one page buffer and appends pages in file order, each written
// exactly once, the manifest last (see pageAppender). Format 2:
//
//	page 0:          manifest (see encodeManifest)
//	point-tree pages: one R-tree node per page, rtree.EncodeCellPage
//	                  layout, nodes in Walk (preorder) order with ids
//	                  densely remapped to 0..n-1 (root = 0)
//	PTI pages:        same: an interior node with its entries' catalog
//	                  envelope rows, a leaf as (rectangle, id) cells
//	                  alone — an irregular object's rows are its
//	                  catalog's, rebuilt from the objects section
//	points section:   byte stream across pages: u64 count, then each
//	                  point object (uncertain.AppendPoint)
//	objects section:  byte stream across pages: u64 count, then each
//	                  uncertain object: a kind byte, then for a leaf
//	                  record (recordLeaf) its id and rectangle, 40
//	                  bytes, and for any other object (recordObject)
//	                  uncertain.AppendObject
//
// Format 1, which this package still reads, differs in three places:
// its node pages are the paged node store's (every leaf entry with its
// rows, derived ones included; rtree.DecodeNodePage), its tree metas
// carry no leaf capacity (a leaf held as many entries as an interior
// node), and its objects section holds every object through
// uncertain.AppendObject, with no kind byte. Restore drops a format-1
// leaf record's rows as the leaf arrives (rtree.Restore).
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
	ckptFormat = 2 // the format written; 1 is still read
	// currentFile points at the live checkpoint inside the data dir.
	currentFile = "CURRENT"
)

// The kinds of a format-2 objects-section record.
const (
	recordLeaf   byte = 0 // a leaf record: id, rectangle
	recordObject byte = 1 // any other object: uncertain.AppendObject
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
	firstPage      uint32
	nodeCount      uint32
	rootIndex      uint32
	height         uint32
	size           uint64
	maxEntries     uint32
	minEntries     uint32
	auxLen         uint32
	leafMaxEntries uint32 // format 2; format 1's leaves were sized as interior nodes
	leafMinEntries uint32
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
	format    uint32
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

	m := manifest{format: ckptFormat, version: st.version, probs: st.probs}
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
	st.objects.Range(func(id uncertain.ID, r geom.Rect) bool {
		if o := st.irregularObject(id); o != nil {
			objBuf, err = uncertain.AppendObject(append(objBuf[:0], recordObject), o)
		} else {
			objBuf = appendLeafRecord(objBuf[:0], id, r)
		}
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
	maxEntries, minEntries := cfg.Capacity(false)
	leafMax, leafMin := cfg.Capacity(true)
	meta.maxEntries, meta.minEntries = uint32(maxEntries), uint32(minEntries)
	meta.leafMaxEntries, meta.leafMinEntries = uint32(leafMax), uint32(leafMin)
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
				nid, ok := remap[cp.Entries[j].Child()]
				if !ok {
					return meta, fmt.Errorf("core: checkpoint: node %d references unvisited child %d",
						n.ID, cp.Entries[j].Child())
				}
				cp.Entries[j].SetChild(rtree.NodeID(nid))
			}
		}
		if err := rtree.EncodeCellPage(cp, a.page, cfg); err != nil {
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
// version, catalog probs, both tree metas (format 2 adds the leaf
// capacities to each), both section metas, and a trailing CRC32C over
// everything before it.
func encodeManifest(page []byte, m *manifest) {
	clear(page)
	off := copy(page, ckptMagic)
	off = putU32(page, off, m.format)
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
		if m.format >= 2 {
			off = putU32(page, off, tm.leafMaxEntries)
			off = putU32(page, off, tm.leafMinEntries)
		}
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
	m := &manifest{format: getU32(page, &off)}
	if m.format < 1 || m.format > ckptFormat {
		return nil, fmt.Errorf("core: checkpoint format %d not supported", m.format)
	}
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
		tm.leafMaxEntries, tm.leafMinEntries = tm.maxEntries, tm.minEntries
		if m.format >= 2 {
			tm.leafMaxEntries = getU32(page, &off)
			tm.leafMinEntries = getU32(page, &off)
		}
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

// loadCheckpoint reconstructs an engine state from a checkpoint file of
// either format. opts supplies the node stores, which must be fresh —
// the dense id remap relies on sequential allocation from zero.
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

	pt := m.pointTree
	pointIdx, err := rtree.Restore(opts.PointNodeStore, rtree.Config{}, int(pt.nodeCount), m.treeNodes(dev, pt),
		rtree.NodeID(pt.rootIndex), int(pt.height), int(pt.size))
	if err != nil {
		return nil, fmt.Errorf("core: restoring point index: %w", err)
	}
	if err := m.checkTreeConfig("point index", pointIdx, pt); err != nil {
		return nil, err
	}

	ut := m.uncTree
	uncIdx, err := pti.Restore(opts.UncertainNodeStore, m.probs, int(ut.nodeCount), m.treeNodes(dev, ut),
		rtree.NodeID(ut.rootIndex), int(ut.height), int(ut.size))
	if err != nil {
		return nil, fmt.Errorf("core: restoring PTI: %w", err)
	}
	if err := m.checkTreeConfig("PTI", uncIdx.Tree(), ut); err != nil {
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
	objects, irregular, err := decodeObjectTable(objectsRaw, uncIdx, m.format)
	if err != nil {
		return nil, err
	}

	st := &engineState{
		seq:         1,
		version:     m.version,
		publishedAt: time.Now(),
		points:      points,
		pointIdx:    pointIdx,
		objects:     objects,
		uncIdx:      uncIdx,
		irregular:   irregular,
		probs:       m.probs,
		met:         newEngineMetrics(),
	}
	if err := uncIdx.RestoreRows(st.irregularObject); err != nil {
		return nil, fmt.Errorf("core: restoring PTI: %w", err)
	}
	if err := st.checkRestored(); err != nil {
		return nil, err
	}
	return st, nil
}

// errInconsistentCheckpoint marks a checkpoint whose sections decode
// but disagree with each other: an index that is not a valid tree, or a
// table that does not hold what its index does.
var errInconsistentCheckpoint = errors.New("core: checkpoint tables and indexes disagree")

// checkRestored holds a state decoded from a checkpoint to what every
// writer keeps: both indexes are valid trees (rtree.CheckInvariants,
// envelopes bit for bit), every point-table row {id, loc} has exactly
// one point-tree leaf entry {RectAt(loc), id} and every object-table
// row {id, rect} exactly one PTI leaf entry {rect, id}, with rectangles
// equal bit for bit, the PTI entry's rows are the object's catalog rows
// at the index's values (for a leaf record, the rows computed from its
// rectangle), and neither index has any other entry. A section damaged
// on disk in a way its decoder cannot see would otherwise surface as
// one-shot answers that disagree with the table, or as a later move of
// the object failing; restore refuses it instead, before the WAL tail
// is replayed.
func (st *engineState) checkRestored() error {
	if err := st.pointIdx.CheckInvariants(false); err != nil {
		return fmt.Errorf("%w: point index: %v", errInconsistentCheckpoint, err)
	}
	if err := st.uncIdx.Tree().CheckInvariants(false); err != nil {
		return fmt.Errorf("%w: PTI: %v", errInconsistentCheckpoint, err)
	}
	seen := make(map[uncertain.ID]struct{}, st.points.Len())
	err := checkLeaves(st.pointIdx, st.points.Len(), func(e rtree.Entry, _ []float64) error {
		id := uncertain.ID(e.Ref)
		p, ok := st.points.Get(id)
		_, dup := seen[id]
		if !ok || dup || !sameRectBits(e.Rect, geom.RectAt(p.Loc)) {
			return fmt.Errorf("%w: point-tree entry %d %v, table row %v (present %t, repeated %t)",
				errInconsistentCheckpoint, id, e.Rect, p.Loc, ok, dup)
		}
		seen[id] = struct{}{}
		return nil
	})
	if err != nil {
		return err
	}
	clear(seen)
	return checkLeaves(st.uncIdx.Tree(), st.objects.Len(), func(e rtree.Entry, aux []float64) error {
		id := uncertain.ID(e.Ref)
		r, ok := st.objects.Get(id)
		_, dup := seen[id]
		if !ok || dup || !sameRectBits(e.Rect, r) || !st.uncIdx.RowsMatch(e, aux, st.irregularObject(id)) {
			return fmt.Errorf("%w: PTI entry %d %v, table row %v (present %t, repeated %t)",
				errInconsistentCheckpoint, id, e.Rect, r, ok, dup)
		}
		seen[id] = struct{}{}
		return nil
	})
}

// checkLeaves requires t to hold as many entries as its table has rows
// and runs check over every leaf entry and its payload. It walks the
// nodes rather than searching them, so it leaves no search mirror
// built behind.
func checkLeaves(t *rtree.Tree, rows int, check func(e rtree.Entry, aux []float64) error) error {
	if t.Len() != rows {
		return fmt.Errorf("%w: index of %d entries over a table of %d rows", errInconsistentCheckpoint, t.Len(), rows)
	}
	return t.Walk(func(n *rtree.Node, _ int) error {
		if !n.Leaf {
			return nil
		}
		for i, e := range n.Entries {
			var aux []float64
			if n.Aux != nil {
				aux = n.Aux[i]
			}
			if err := check(e, aux); err != nil {
				return err
			}
		}
		return nil
	})
}

// sameRectBits reports whether two rectangles are equal bit for bit.
func sameRectBits(a, b geom.Rect) bool {
	return math.Float64bits(a.Lo.X) == math.Float64bits(b.Lo.X) && math.Float64bits(a.Lo.Y) == math.Float64bits(b.Lo.Y) &&
		math.Float64bits(a.Hi.X) == math.Float64bits(b.Hi.X) && math.Float64bits(a.Hi.Y) == math.Float64bits(b.Hi.Y)
}

// checkTreeConfig guards against loading a checkpoint under a
// different index configuration: nodes packed for one capacity would
// silently violate the invariants of another on the next insert. A
// format-1 file carries no leaf capacity: its leaves, sized as its
// interior nodes, are held to the engine's leaf capacity by
// CheckInvariants instead, so a data directory written before leaves
// had their own capacity still opens.
func (m *manifest) checkTreeConfig(what string, t *rtree.Tree, tm treeMeta) error {
	cfg := t.Config()
	maxEntries, minEntries := cfg.Capacity(false)
	leafMax, leafMin := cfg.Capacity(true)
	if m.format == 1 {
		leafMax, leafMin = int(tm.leafMaxEntries), int(tm.leafMinEntries)
	}
	if uint32(maxEntries) != tm.maxEntries || uint32(minEntries) != tm.minEntries || uint32(cfg.AuxLen) != tm.auxLen ||
		uint32(leafMax) != tm.leafMaxEntries || uint32(leafMin) != tm.leafMinEntries {
		return fmt.Errorf("core: %s config mismatch: checkpoint M=%d m=%d leaf M=%d m=%d aux=%d, engine M=%d m=%d leaf M=%d m=%d aux=%d",
			what, tm.maxEntries, tm.minEntries, tm.leafMaxEntries, tm.leafMinEntries, tm.auxLen,
			maxEntries, minEntries, leafMax, leafMin, cfg.AuxLen)
	}
	return nil
}

// treeNodes returns the reader rtree.Restore takes the nodes of the
// checkpointed tree tm through: node i is page tm.firstPage+i, decoded
// in the manifest's format.
func (m *manifest) treeNodes(dev storage.Store, tm treeMeta) func(rtree.NodeID) (*rtree.Node, error) {
	decode := rtree.DecodeCellPage
	if m.format == 1 {
		decode = rtree.DecodeNodePage
	}
	buf := make([]byte, storage.PageSize)
	return func(id rtree.NodeID) (*rtree.Node, error) {
		if err := dev.ReadPage(storage.PageID(tm.firstPage)+storage.PageID(id), buf); err != nil {
			return nil, err
		}
		return decode(id, buf, int(tm.auxLen))
	}
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
	tab := tableLoader[uncertain.PointObject]{tab: newCowTable[uncertain.PointObject](int(n)), what: "point"}
	for i := uint64(0); i < n; i++ {
		p, rest, err := uncertain.DecodePoint(b)
		if err != nil {
			return nil, err
		}
		b = rest
		if err := tab.add(p.ID, p); err != nil {
			return nil, err
		}
	}
	return tab.done()
}

// appendLeafRecord appends the objects-section record of the leaf
// record {id, r}.
func appendLeafRecord(b []byte, id uncertain.ID, r geom.Rect) []byte {
	b = append(b, recordLeaf)
	b = binary.LittleEndian.AppendUint64(b, uint64(id))
	for _, v := range [4]float64{r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// decodeObjectTable decodes the objects section of a checkpoint of the
// given format into the object table and the irregular table (see
// engineState.objects): a leaf record of ix is kept as its rectangle
// alone.
func decodeObjectTable(b []byte, ix *pti.Index, format uint32) (*cowTable[geom.Rect], *cowTable[*uncertain.Object], error) {
	if len(b) < 8 {
		return nil, nil, fmt.Errorf("core: truncated object table")
	}
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if n > maxBatchUpdates {
		return nil, nil, fmt.Errorf("core: object table claims %d entries", n)
	}
	tab := tableLoader[geom.Rect]{tab: newCowTable[geom.Rect](int(n)), what: "object"}
	irregular := newCowTable[*uncertain.Object](0)
	for i := uint64(0); i < n; i++ {
		var (
			id  uncertain.ID
			r   geom.Rect
			o   *uncertain.Object
			err error
		)
		if format == 1 {
			b, id, r, o, err = decodeObjectRecordV1(b, ix)
		} else {
			b, id, r, o, err = decodeObjectRecord(b, ix)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: object table record %d of %d: %w", i, n, err)
		}
		if err := tab.add(id, r); err != nil {
			return nil, nil, err
		}
		if o != nil {
			irregular.put(id, o)
		}
	}
	objects, err := tab.done()
	if err != nil {
		return nil, nil, err
	}
	irregular.fit()
	return objects, irregular, nil
}

// decodeObjectRecord decodes one format-2 objects-section record from
// the front of b: a leaf record's id and rectangle, which must be one a
// uniform pdf accepts, or an irregular object, which must not be a leaf
// record of ix (o is nil for a leaf record).
func decodeObjectRecord(b []byte, ix *pti.Index) (rest []byte, id uncertain.ID, r geom.Rect, o *uncertain.Object, err error) {
	if len(b) == 0 {
		return nil, 0, r, nil, errors.New("truncated")
	}
	switch kind := b[0]; kind {
	case recordLeaf:
		if len(b) < 41 {
			return nil, 0, r, nil, errors.New("truncated leaf record")
		}
		f := func(at int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[at:])) }
		id = uncertain.ID(binary.LittleEndian.Uint64(b[1:]))
		r = geom.Rect{Lo: geom.Pt(f(9), f(17)), Hi: geom.Pt(f(25), f(33))}
		if err := pdf.CheckUniform(r); err != nil {
			return nil, 0, r, nil, fmt.Errorf("leaf record %d: %w", id, err)
		}
		return b[41:], id, r, nil, nil
	case recordObject:
		if o, b, err = uncertain.DecodeObject(b[1:]); err != nil {
			return nil, 0, r, nil, err
		}
		if ix.IsLeafRecord(o) {
			return nil, 0, r, nil, fmt.Errorf("%w: leaf record %d stored in full", errInconsistentCheckpoint, o.ID)
		}
		return b, o.ID, o.Region(), o, nil
	default:
		return nil, 0, r, nil, fmt.Errorf("record of kind %d", kind)
	}
}

// decodeObjectRecordV1 decodes one format-1 objects-section record, an
// object in full, from the front of b; o is nil for a leaf record of
// ix.
func decodeObjectRecordV1(b []byte, ix *pti.Index) (rest []byte, id uncertain.ID, r geom.Rect, o *uncertain.Object, err error) {
	if o, b, err = uncertain.DecodeObject(b); err != nil {
		return nil, 0, r, nil, err
	}
	id, r = o.ID, o.Region()
	if ix.IsLeafRecord(o) {
		o = nil
	}
	return b, id, r, o, nil
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
