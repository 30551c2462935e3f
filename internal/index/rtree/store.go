package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/storage"
)

// NodeStore abstracts node persistence. Get returns a node the caller
// may mutate; mutations become visible (and durable, for paged stores)
// only after Update. Both provided implementations are internally
// synchronized for the MVCC access pattern the engine relies on: any
// number of goroutines may Get concurrently while a single writer
// runs Alloc/Update/Free — readers traversing a published (sealed)
// tree version never observe a node the writer is still building,
// because copy-on-write mutations only ever write to freshly
// allocated ids that no published root references.
type NodeStore interface {
	// Alloc creates an empty node of the given kind and returns it.
	Alloc(leaf bool) (*Node, error)
	// Get fetches node id.
	Get(id NodeID) (*Node, error)
	// Update persists n under n.ID.
	Update(n *Node) error
	// Free releases node id for reuse.
	Free(id NodeID) error
}

// MemNodeStore keeps nodes on the Go heap. It is the fast path for
// CPU-bound experiments; searches still count their node accesses.
// A reader–writer mutex makes concurrent Gets race-free against the
// single COW writer's Alloc/Update/Free; the lock is held only for
// the map operation, never across node processing.
type MemNodeStore struct {
	mu    sync.RWMutex
	nodes map[NodeID]*Node
	next  NodeID
	free  []NodeID
}

// NewMemNodeStore returns an empty in-memory node store.
func NewMemNodeStore() *MemNodeStore {
	return &MemNodeStore{nodes: make(map[NodeID]*Node)}
}

// Alloc implements NodeStore.
func (s *MemNodeStore) Alloc(leaf bool) (*Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var id NodeID
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		id = s.next
		s.next++
	}
	n := &Node{ID: id, Leaf: leaf}
	s.nodes[id] = n
	return n, nil
}

// Get implements NodeStore.
func (s *MemNodeStore) Get(id NodeID) (*Node, error) {
	s.mu.RLock()
	n, ok := s.nodes[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("rtree: node %d not found", id)
	}
	return n, nil
}

// Update implements NodeStore. For the memory store the returned nodes
// alias the stored ones, so Update only needs to re-register the id —
// and drop the node's cached SoA rectangle mirror, which the mutated
// entries have invalidated.
func (s *MemNodeStore) Update(n *Node) error {
	n.invalidateSoA()
	s.mu.Lock()
	s.nodes[n.ID] = n
	s.mu.Unlock()
	return nil
}

// Free implements NodeStore.
func (s *MemNodeStore) Free(id NodeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.nodes[id]; !ok {
		return fmt.Errorf("rtree: free of unknown node %d", id)
	}
	delete(s.nodes, id)
	s.free = append(s.free, id)
	return nil
}

// NumNodes returns the number of live nodes.
func (s *MemNodeStore) NumNodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.nodes)
}

// PagedNodeStore serializes each node into one 4 KiB page accessed
// through a buffer pool, reproducing the paper's disk-resident index.
// Tree metadata (root id) is kept in memory; page allocation and
// free-page reuse go through a storage.PageAllocator. Page data itself
// is synchronized by the buffer pool.
type PagedNodeStore struct {
	pool   *storage.BufferPool
	alloc  *storage.PageAllocator
	auxLen int
	// derive is the DeriveAux of the tree built over the store (see
	// attachStore): a page holds every entry's row, so Update writes
	// the rows leaf entries do not store from it. Get decodes every
	// row as stored.
	derive DeriveAuxFunc
}

// attachStore hands a paged store the DeriveAux of the tree being built
// or restored over it.
func attachStore(store NodeStore, cfg Config) {
	if ps, ok := store.(*PagedNodeStore); ok && cfg.DeriveAux != nil {
		ps.derive = cfg.DeriveAux
	}
}

// NewPagedNodeStore builds a paged store over pool for nodes whose
// entries carry auxLen auxiliary float64s.
func NewPagedNodeStore(pool *storage.BufferPool, auxLen int) *PagedNodeStore {
	return &PagedNodeStore{pool: pool, alloc: storage.NewPageAllocator(pool), auxLen: auxLen}
}

// Pool exposes the underlying buffer pool (for I/O statistics).
func (s *PagedNodeStore) Pool() *storage.BufferPool { return s.pool }

// Alloc implements NodeStore.
func (s *PagedNodeStore) Alloc(leaf bool) (*Node, error) {
	id, err := s.alloc.Alloc()
	if err != nil {
		return nil, err
	}
	return &Node{ID: NodeID(id), Leaf: leaf}, nil
}

// Get implements NodeStore.
func (s *PagedNodeStore) Get(id NodeID) (*Node, error) {
	data, err := s.pool.Pin(storage.PageID(id))
	if err != nil {
		return nil, err
	}
	defer s.pool.Unpin(storage.PageID(id))
	return decodeNode(id, data, s.auxLen)
}

// Update implements NodeStore.
func (s *PagedNodeStore) Update(n *Node) error {
	data, err := s.pool.Pin(storage.PageID(n.ID))
	if err != nil {
		return err
	}
	defer s.pool.Unpin(storage.PageID(n.ID))
	if err := encodeNode(n, data, s.auxLen, s.derive); err != nil {
		return err
	}
	s.pool.MarkDirty(storage.PageID(n.ID))
	return nil
}

// Free implements NodeStore.
func (s *PagedNodeStore) Free(id NodeID) error {
	s.alloc.Free(storage.PageID(id))
	return nil
}

// Node page layout:
//
//	offset 0: flags byte (bit 0 = leaf)
//	offset 1: reserved byte
//	offset 2: uint16 entry count
//	offset 4: uint32 reserved
//	offset 8: entries, each 32-byte rect + 8-byte ref/child +
//	          auxLen float64s
//
// Every entry's row is written: a leaf entry that stores none gets the
// row derive computes from its rectangle.
func encodeNode(n *Node, data []byte, auxLen int, derive DeriveAuxFunc) error {
	entryBytes := 32 + 8 + 8*auxLen
	need := nodeHeaderBytes + len(n.Entries)*entryBytes
	if need > storage.PageSize {
		return fmt.Errorf("rtree: node %d with %d entries overflows page (%d > %d)",
			n.ID, len(n.Entries), need, storage.PageSize)
	}
	if auxLen > 0 && n.Aux != nil && len(n.Aux) != len(n.Entries) {
		return fmt.Errorf("rtree: node %d carries %d aux rows for %d entries", n.ID, len(n.Aux), len(n.Entries))
	}
	var derived []float64
	var flags byte
	if n.Leaf {
		flags |= 1
	}
	data[0] = flags
	data[1] = 0
	binary.LittleEndian.PutUint16(data[2:], uint16(len(n.Entries)))
	binary.LittleEndian.PutUint32(data[4:], 0)
	off := nodeHeaderBytes
	for i, e := range n.Entries {
		putFloat(data[off:], e.Rect.Lo.X)
		putFloat(data[off+8:], e.Rect.Lo.Y)
		putFloat(data[off+16:], e.Rect.Hi.X)
		putFloat(data[off+24:], e.Rect.Hi.Y)
		if n.Leaf {
			binary.LittleEndian.PutUint64(data[off+32:], uint64(e.Ref))
		} else {
			binary.LittleEndian.PutUint64(data[off+32:], uint64(e.Child()))
		}
		off += 40
		if auxLen > 0 {
			row := n.auxAt(i)
			if row == nil {
				if !n.Leaf || derive == nil {
					return fmt.Errorf("rtree: node %d entry %d stores no aux row", n.ID, i)
				}
				if derived == nil {
					derived = make([]float64, auxLen)
				}
				derive(e.Rect, derived)
				row = derived
			}
			if len(row) != auxLen {
				return fmt.Errorf("rtree: entry aux length %d, want %d", len(row), auxLen)
			}
			for _, v := range row {
				putFloat(data[off:], v)
				off += 8
			}
		}
	}
	return nil
}

func decodeNode(id NodeID, data []byte, auxLen int) (*Node, error) {
	n := &Node{ID: id, Leaf: data[0]&1 != 0}
	count := int(binary.LittleEndian.Uint16(data[2:]))
	entryBytes := 32 + 8 + 8*auxLen
	if nodeHeaderBytes+count*entryBytes > storage.PageSize {
		return nil, fmt.Errorf("rtree: corrupt node %d: count %d overflows page", id, count)
	}
	n.Entries = make([]Entry, count)
	n.Aux = newAuxRows(count, auxLen)
	off := nodeHeaderBytes
	for i := 0; i < count; i++ {
		e := Entry{
			Rect: geom.Rect{
				Lo: geom.Pt(getFloat(data[off:]), getFloat(data[off+8:])),
				Hi: geom.Pt(getFloat(data[off+16:]), getFloat(data[off+24:])),
			},
		}
		raw := binary.LittleEndian.Uint64(data[off+32:])
		if n.Leaf {
			e.Ref = Ref(raw)
		} else {
			e.SetChild(NodeID(raw))
		}
		off += 40
		for j := range n.auxAt(i) {
			n.Aux[i][j] = getFloat(data[off:])
			off += 8
		}
		n.Entries[i] = e
	}
	return n, nil
}

// DecodeNodePage decodes a node page in the paged node store's layout,
// every entry with its row, assigning it the given id: the node pages
// of a format-1 checkpoint. page must be storage.PageSize bytes.
func DecodeNodePage(id NodeID, page []byte, auxLen int) (*Node, error) {
	return decodeNode(id, page, auxLen)
}

// EncodeCellPage writes n in the paged node store's layout, except
// that a leaf holds its entries as (rectangle, ref) cells alone — 40 bytes each,
// CapacityForPage(0) to a page, the layout of a tree without a payload —
// and stores no row, derived or not: the reader rebuilds the rows it
// needs from elsewhere. An interior node keeps every row.
func EncodeCellPage(n *Node, page []byte, cfg Config) error {
	if n.Leaf {
		return encodeNode(n, page, 0, nil)
	}
	return encodeNode(n, page, cfg.AuxLen, nil)
}

// DecodeCellPage decodes a page written by EncodeCellPage, assigning
// it the given id: a leaf comes back with its entries and a nil Aux,
// an interior node with auxLen values per row.
func DecodeCellPage(id NodeID, page []byte, auxLen int) (*Node, error) {
	if page[0]&1 != 0 {
		auxLen = 0
	}
	return decodeNode(id, page, auxLen)
}

func putFloat(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}

func getFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
