package storage

import (
	"fmt"
	"sync"
)

// Stats counts buffer-pool traffic. LogicalReads is the paper's "node
// access" metric: every page request, hit or miss. PhysicalReads and
// PageWrites reach the underlying Store.
type Stats struct {
	LogicalReads  int64
	PhysicalReads int64
	PageWrites    int64
	Evictions     int64
}

// Sub returns s - t, for measuring a single operation's traffic.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		LogicalReads:  s.LogicalReads - t.LogicalReads,
		PhysicalReads: s.PhysicalReads - t.PhysicalReads,
		PageWrites:    s.PageWrites - t.PageWrites,
		Evictions:     s.Evictions - t.Evictions,
	}
}

// frame is one cached page. Every field is guarded by the pool mutex;
// data is additionally handed to pinners, who own its contents until
// they Unpin.
type frame struct {
	id   PageID
	data []byte
	// pins counts current users; a pinned frame is never evicted.
	pins int
	// dirty marks modifications the store has not seen yet.
	dirty bool
	// ref is the CLOCK reference bit: set on every pin, cleared when
	// the sweep hand passes, granting recently used pages a second
	// chance before eviction.
	ref bool
}

// BufferPool caches up to capacity pages over a Store, evicting by
// CLOCK (second chance). Pages are pinned while in use; pinned pages
// are never evicted, and ErrPoolFull means all capacity pages are
// pinned at once. The zero value is not usable; call NewBufferPool.
//
// The pool is safe for concurrent use and deliberately plain: one
// mutex guards the frame table, the clock ring and the counters, and
// every store call — the physical read of a miss, the write-back of a
// dirty victim, Flush — happens with it held. A page is therefore
// either resident or on the store, never in between: a victim is
// chosen, written back if dirty and dropped inside one critical
// section, so a Pin of a page being evicted waits for the write and
// then reads what it wrote. (A Store must therefore never call back
// into the pool that wraps it.) The pool's traffic — a paged index under
// the figure harness and under tests — does not need I/O to overlap;
// it needs logical and physical reads counted (§6.1 of the paper) and
// no page ever lost or torn.
//
// Page contents themselves are not versioned: a goroutine writing a
// pinned page must be the only one using that page, as the engine's
// copy-on-write path guarantees (it writes only pages no published
// tree references), and Flush/Clear must not run concurrently with
// such a writer.
type BufferPool struct {
	store    Store
	capacity int

	mu     sync.Mutex
	frames map[PageID]*frame
	clock  []*frame // every resident frame, in sweep order
	hand   int
	stats  Stats
}

// NewBufferPool wraps store with a pool of the given page capacity
// (minimum 1).
func NewBufferPool(store Store, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &BufferPool{store: store, capacity: capacity, frames: make(map[PageID]*frame)}
}

// Stats returns a snapshot of the pool's counters.
func (bp *BufferPool) Stats() Stats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// Resident returns the number of pages currently cached.
func (bp *BufferPool) Resident() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return len(bp.frames)
}

// Allocate creates a new zeroed page in the store and pins it. Room is
// made first, so a pool full of pinned pages fails without growing the
// store.
func (bp *BufferPool) Allocate() (PageID, []byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if err := bp.makeRoomLocked(); err != nil {
		return InvalidPage, nil, err
	}
	id, err := bp.store.Allocate()
	if err != nil {
		return InvalidPage, nil, err
	}
	return id, bp.installLocked(id, make([]byte, PageSize)), nil
}

// Pin fetches page id, reading it from the store on a miss, and pins
// it. The returned slice aliases the pool frame: it is valid until the
// matching Unpin and must be written through MarkDirty to persist.
func (bp *BufferPool) Pin(id PageID) ([]byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats.LogicalReads++
	if f, ok := bp.frames[id]; ok {
		f.pins++
		f.ref = true
		return f.data, nil
	}
	if err := bp.makeRoomLocked(); err != nil {
		return nil, err
	}
	data := make([]byte, PageSize)
	bp.stats.PhysicalReads++
	if err := bp.store.ReadPage(id, data); err != nil {
		return nil, err
	}
	return bp.installLocked(id, data), nil
}

// installLocked caches data as page id with one pin, at the tail of
// the clock ring.
func (bp *BufferPool) installLocked(id PageID, data []byte) []byte {
	f := &frame{id: id, data: data, pins: 1, ref: true}
	bp.frames[id] = f
	bp.clock = append(bp.clock, f)
	return data
}

// makeRoomLocked evicts until one more page fits. A dirty victim is
// written back before it is dropped; if that write fails the victim
// stays resident and dirty (it is the only copy) and the error fails
// the Pin or Allocate that needed the room.
func (bp *BufferPool) makeRoomLocked() error {
	for len(bp.frames) >= bp.capacity {
		v := bp.pickVictimLocked()
		if v == nil {
			return fmt.Errorf("%w: capacity %d", ErrPoolFull, bp.capacity)
		}
		if err := bp.writeBackLocked(v); err != nil {
			return err
		}
		// The victim sits under the hand: swap the ring's tail into its
		// slot, so the hand inspects that frame next.
		last := len(bp.clock) - 1
		bp.clock[bp.hand] = bp.clock[last]
		bp.clock[last] = nil
		bp.clock = bp.clock[:last]
		if bp.hand == last {
			bp.hand = 0
		}
		delete(bp.frames, v.id)
		bp.stats.Evictions++
	}
	return nil
}

// pickVictimLocked runs the CLOCK sweep: skip pinned frames, clear
// reference bits, and return the first unpinned frame found without
// one, leaving the hand on it. Returns nil if two full sweeps find
// every frame pinned.
func (bp *BufferPool) pickVictimLocked() *frame {
	for i := 0; i < 2*len(bp.clock); i++ {
		if bp.hand >= len(bp.clock) {
			bp.hand = 0
		}
		f := bp.clock[bp.hand]
		if f.pins == 0 {
			if !f.ref {
				return f
			}
			f.ref = false
		}
		bp.hand++
	}
	return nil
}

// writeBackLocked persists f if it is dirty.
func (bp *BufferPool) writeBackLocked(f *frame) error {
	if !f.dirty {
		return nil
	}
	if err := bp.store.WritePage(f.id, f.data); err != nil {
		return err
	}
	f.dirty = false
	bp.stats.PageWrites++
	return nil
}

// MarkDirty records that the pinned page id has been modified.
func (bp *BufferPool) MarkDirty(id PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if f, ok := bp.frames[id]; ok {
		f.dirty = true
	}
}

// Unpin releases one pin on page id.
func (bp *BufferPool) Unpin(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	f, ok := bp.frames[id]
	if !ok || f.pins == 0 {
		return fmt.Errorf("%w: page %d", ErrBadPinCount, id)
	}
	f.pins--
	return nil
}

// Flush persists every dirty frame (pinned or not) without evicting.
// It stops at the first store error; the pages not yet written stay
// dirty, so a later Flush retries them.
func (bp *BufferPool) Flush() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.flushLocked()
}

func (bp *BufferPool) flushLocked() error {
	for _, f := range bp.clock {
		if err := bp.writeBackLocked(f); err != nil {
			return err
		}
	}
	return nil
}

// Clear flushes dirty frames and drops every unpinned frame, leaving a
// cold cache. It is used by experiments that need cold-start I/O
// measurements. Pinned frames are flushed but stay resident; an error
// is returned if any page remains pinned.
func (bp *BufferPool) Clear() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if err := bp.flushLocked(); err != nil {
		return err
	}
	kept := bp.clock[:0]
	for _, f := range bp.clock {
		if f.pins > 0 {
			kept = append(kept, f)
		} else {
			delete(bp.frames, f.id)
		}
	}
	clear(bp.clock[len(kept):])
	bp.clock, bp.hand = kept, 0
	if len(kept) > 0 {
		return fmt.Errorf("%w: %d pages still pinned during Clear", ErrBadPinCount, len(kept))
	}
	return nil
}
