// Package storage provides the paged-storage substrate under the
// spatial indexes and the durability layer: fixed-size pages, page
// stores (memory- or file-backed), a CLOCK buffer pool with pin counts
// and I/O statistics, and a free-list page allocator.
//
// The paper's experiments run the R-tree of the Spatial Index Library
// with 4 KiB nodes over disk pages (§6.1). This package reproduces that
// regime: an index node occupies exactly one page, a node access is one
// logical page read, and buffer-pool misses are physical reads. The
// benchmark harness reports both wall-clock time and these counters, so
// the paper's I/O trends can be read off hardware-independently.
//
// Store is the package's one paged-store contract. The buffer pool
// (under the R-tree/PTI node stores) and the checkpoint writer and
// loader go through it, and node pages everywhere use the single codec
// pair rtree.EncodeNodePage/DecodeNodePage, so a page written by the
// live index and a page written by a checkpoint are byte-wise the same
// format.
package storage

import (
	"errors"
	"fmt"
	"sync"
)

// PageSize is the fixed page size in bytes, matching the paper's 4 KiB
// R-tree node size.
const PageSize = 4096

// PageID identifies a page within a store. Valid IDs start at 0.
type PageID uint32

// InvalidPage is a sentinel PageID that no store ever allocates.
const InvalidPage = PageID(0xFFFFFFFF)

// Errors returned by stores and buffer pools.
var (
	ErrPageBounds  = errors.New("storage: page id out of bounds")
	ErrPoolFull    = errors.New("storage: buffer pool full of pinned pages")
	ErrBadPinCount = errors.New("storage: unpin without matching pin")
)

// Store is the raw page device: it can allocate fresh pages and read
// and write whole pages by id. Concurrency contract: a BufferPool
// makes every store call under its own mutex, one at a time, and never
// from a goroutine of its own — there is no background writer. The
// checkpoint writer and loader drive their device from one goroutine.
// MemStore and FileStore are nevertheless safe for concurrent use
// (one synchronized page directory, pageDir; distinct pages occupy
// distinct slices / file regions), so a test may inspect a store
// beside the pool that wraps it.
type Store interface {
	// Allocate appends a zeroed page and returns its id.
	Allocate() (PageID, error)
	// ReadPage copies page id into buf (len(buf) == PageSize).
	ReadPage(id PageID, buf []byte) error
	// WritePage copies buf (len(buf) == PageSize) into page id.
	WritePage(id PageID, buf []byte) error
	// NumPages returns the number of allocated pages.
	NumPages() int
}

// pageDir is the synchronized page directory every Store
// implementation shares: the allocated-page count behind a read-write
// mutex, with the common bounds check. Store-specific state (the page
// slices, the backing file) is guarded by the same mutex, so Allocate
// — which may move a slice header or extend the file — is safe
// against concurrent page I/O.
type pageDir struct {
	mu sync.RWMutex
	n  int
}

// count returns the allocated-page count.
func (d *pageDir) count() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.n
}

// check validates id against the current page count.
func (d *pageDir) check(op string, id PageID) error {
	if n := d.count(); int(id) >= n {
		return fmt.Errorf("%w: %s %d of %d", ErrPageBounds, op, id, n)
	}
	return nil
}

// MemStore is an in-memory Store. It is the default backing device for
// simulations: "physical" reads are memory copies, but they are still
// counted, preserving the paper's I/O cost model.
type MemStore struct {
	dir   pageDir
	pages [][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Allocate implements Store.
func (m *MemStore) Allocate() (PageID, error) {
	m.dir.mu.Lock()
	defer m.dir.mu.Unlock()
	m.pages = append(m.pages, make([]byte, PageSize))
	m.dir.n = len(m.pages)
	return PageID(len(m.pages) - 1), nil
}

// page returns the backing slice for id under the read lock.
func (m *MemStore) page(id PageID) []byte {
	m.dir.mu.RLock()
	defer m.dir.mu.RUnlock()
	if int(id) >= len(m.pages) {
		return nil
	}
	return m.pages[id]
}

// ReadPage implements Store.
func (m *MemStore) ReadPage(id PageID, buf []byte) error {
	p := m.page(id)
	if p == nil {
		return m.dir.check("read", id)
	}
	copy(buf, p)
	return nil
}

// WritePage implements Store.
func (m *MemStore) WritePage(id PageID, buf []byte) error {
	p := m.page(id)
	if p == nil {
		return m.dir.check("write", id)
	}
	copy(p, buf)
	return nil
}

// NumPages implements Store.
func (m *MemStore) NumPages() int { return m.dir.count() }

// PageAllocator hands out pages from a buffer pool with free-list
// reuse — the allocation path of the R-tree/PTI node stores — so freed
// index pages are recycled instead of growing the store forever. It
// carries its own mutex because frees may arrive from a reader
// goroutine (snapshot reclamation) while the single writer allocates.
type PageAllocator struct {
	pool *BufferPool

	mu   sync.Mutex
	free []PageID
}

// NewPageAllocator returns an allocator over pool.
func NewPageAllocator(pool *BufferPool) *PageAllocator {
	return &PageAllocator{pool: pool}
}

// Alloc returns a reusable or fresh page id, unpinned.
func (a *PageAllocator) Alloc() (PageID, error) {
	a.mu.Lock()
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		a.mu.Unlock()
		return id, nil
	}
	a.mu.Unlock()
	id, _, err := a.pool.Allocate()
	if err != nil {
		return InvalidPage, err
	}
	if err := a.pool.Unpin(id); err != nil {
		return InvalidPage, err
	}
	return id, nil
}

// Free returns id to the free list for reuse.
func (a *PageAllocator) Free(id PageID) {
	a.mu.Lock()
	a.free = append(a.free, id)
	a.mu.Unlock()
}
