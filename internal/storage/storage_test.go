package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestMemStoreRoundTrip(t *testing.T) {
	m := NewMemStore()
	id0, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id1, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id0 != 0 || id1 != 1 || m.NumPages() != 2 {
		t.Fatalf("ids = %d, %d; pages = %d", id0, id1, m.NumPages())
	}
	w := make([]byte, PageSize)
	for i := range w {
		w[i] = byte(i % 251)
	}
	if err := m.WritePage(id1, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, PageSize)
	if err := m.ReadPage(id1, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Fatal("read data differs from written")
	}
	// Fresh page is zeroed.
	if err := m.ReadPage(id0, r); err != nil {
		t.Fatal(err)
	}
	for _, b := range r {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}
}

func TestMemStoreBounds(t *testing.T) {
	m := NewMemStore()
	buf := make([]byte, PageSize)
	if err := m.ReadPage(3, buf); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("read OOB: %v", err)
	}
	if err := m.WritePage(0, buf); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("write OOB: %v", err)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	w := make([]byte, PageSize)
	copy(w, []byte("hello pages"))
	if err := fs.WritePage(id, w); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and read back: persistence across open/close.
	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if fs2.NumPages() != 1 {
		t.Fatalf("NumPages after reopen = %d", fs2.NumPages())
	}
	r := make([]byte, PageSize)
	if err := fs2.ReadPage(id, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Fatal("file store round trip failed")
	}
}

func TestBufferPoolHitAndMiss(t *testing.T) {
	m := NewMemStore()
	id, _ := m.Allocate()
	bp := NewBufferPool(m, 4)

	// First pin: miss.
	if _, err := bp.Pin(id); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(id); err != nil {
		t.Fatal(err)
	}
	// Second pin: hit.
	if _, err := bp.Pin(id); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(id); err != nil {
		t.Fatal(err)
	}
	s := bp.Stats()
	if s.LogicalReads != 2 || s.PhysicalReads != 1 {
		t.Fatalf("stats = %+v, want 2 logical / 1 physical", s)
	}
}

func TestBufferPoolEvictionClock(t *testing.T) {
	m := NewMemStore()
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _ := m.Allocate()
		ids = append(ids, id)
	}
	bp := NewBufferPool(m, 2)
	// Touch 0, 1 -> pool holds {0, 1}; the CLOCK sweep clears both
	// reference bits and takes the oldest slot (0) as the victim.
	for _, id := range ids[:2] {
		if _, err := bp.Pin(id); err != nil {
			t.Fatal(err)
		}
		bp.Unpin(id)
	}
	// Touch 2 -> evicts 0.
	if _, err := bp.Pin(ids[2]); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(ids[2])
	if bp.Resident() != 2 {
		t.Fatalf("resident = %d, want 2", bp.Resident())
	}
	// Re-pin 1: still resident (hit).
	before := bp.Stats().PhysicalReads
	if _, err := bp.Pin(ids[1]); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(ids[1])
	if bp.Stats().PhysicalReads != before {
		t.Fatal("page 1 was evicted; expected the sweep to evict page 0")
	}
	// Re-pin 0: miss.
	if _, err := bp.Pin(ids[0]); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(ids[0])
	if bp.Stats().PhysicalReads != before+1 {
		t.Fatal("expected a miss for evicted page 0")
	}
}

func TestBufferPoolWriteBack(t *testing.T) {
	m := NewMemStore()
	id, _ := m.Allocate()
	bp := NewBufferPool(m, 1)

	data, err := bp.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, []byte("dirty data"))
	bp.MarkDirty(id)
	bp.Unpin(id)

	// Force eviction by touching another page: the victim is written
	// back before the Pin returns.
	id2, _ := m.Allocate()
	if _, err := bp.Pin(id2); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(id2)

	raw := make([]byte, PageSize)
	if err := m.ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("dirty data")) {
		t.Fatal("dirty page not written back on eviction")
	}
}

func TestBufferPoolFlush(t *testing.T) {
	m := NewMemStore()
	id, _ := m.Allocate()
	bp := NewBufferPool(m, 4)
	data, _ := bp.Pin(id)
	copy(data, []byte("flushed"))
	bp.MarkDirty(id)
	bp.Unpin(id)
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, PageSize)
	m.ReadPage(id, raw)
	if !bytes.HasPrefix(raw, []byte("flushed")) {
		t.Fatal("Flush did not persist dirty page")
	}
}

func TestBufferPoolPinnedNotEvicted(t *testing.T) {
	m := NewMemStore()
	id0, _ := m.Allocate()
	id1, _ := m.Allocate()
	bp := NewBufferPool(m, 1)
	if _, err := bp.Pin(id0); err != nil {
		t.Fatal(err)
	}
	// Pool of 1 with the only frame pinned: next pin must fail.
	if _, err := bp.Pin(id1); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("expected ErrPoolFull, got %v", err)
	}
	bp.Unpin(id0)
	if _, err := bp.Pin(id1); err != nil {
		t.Fatalf("pin after unpin failed: %v", err)
	}
}

func TestBufferPoolUnpinErrors(t *testing.T) {
	m := NewMemStore()
	id, _ := m.Allocate()
	bp := NewBufferPool(m, 2)
	if err := bp.Unpin(id); !errors.Is(err, ErrBadPinCount) {
		t.Fatalf("unpin of unpinned page: %v", err)
	}
	if _, err := bp.Pin(id); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(id); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(id); !errors.Is(err, ErrBadPinCount) {
		t.Fatalf("double unpin: %v", err)
	}
}

func TestBufferPoolAllocate(t *testing.T) {
	m := NewMemStore()
	bp := NewBufferPool(m, 2)
	id, data, err := bp.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(data, []byte("fresh"))
	bp.MarkDirty(id)
	bp.Unpin(id)
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, PageSize)
	m.ReadPage(id, raw)
	if !bytes.HasPrefix(raw, []byte("fresh")) {
		t.Fatal("allocated page contents lost")
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{LogicalReads: 10, PhysicalReads: 4, PageWrites: 2, Evictions: 1}
	b := Stats{LogicalReads: 6, PhysicalReads: 1, PageWrites: 1, Evictions: 0}
	d := a.Sub(b)
	if d.LogicalReads != 4 || d.PhysicalReads != 3 || d.PageWrites != 1 || d.Evictions != 1 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestBufferPoolStressConsistency(t *testing.T) {
	// Random workload against a pool much smaller than the page set;
	// verify every page ends with its last written content.
	m := NewMemStore()
	const pages = 64
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i], _ = m.Allocate()
	}
	bp := NewBufferPool(m, 8)
	want := make(map[PageID]byte)
	rng := rand.New(rand.NewSource(44))
	for op := 0; op < 5000; op++ {
		id := ids[rng.Intn(pages)]
		data, err := bp.Pin(id)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := want[id]; ok && data[0] != v {
			t.Fatalf("page %d: read %d, want %d", id, data[0], v)
		}
		if rng.Intn(2) == 0 {
			v := byte(rng.Intn(256))
			data[0] = v
			want[id] = v
			bp.MarkDirty(id)
		}
		bp.Unpin(id)
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for id, v := range want {
		m.ReadPage(id, buf)
		if buf[0] != v {
			t.Fatalf("after flush, page %d = %d, want %d", id, buf[0], v)
		}
	}
}

func TestBufferPoolClear(t *testing.T) {
	m := NewMemStore()
	id, _ := m.Allocate()
	bp := NewBufferPool(m, 4)
	data, err := bp.Pin(id)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, []byte("cleared"))
	bp.MarkDirty(id)
	// Clear with a pinned page: flushes but reports the pin.
	if err := bp.Clear(); !errors.Is(err, ErrBadPinCount) {
		t.Fatalf("Clear with pinned page: %v", err)
	}
	bp.Unpin(id)
	if err := bp.Clear(); err != nil {
		t.Fatal(err)
	}
	if bp.Resident() != 0 {
		t.Fatalf("resident = %d after Clear", bp.Resident())
	}
	// The dirty content survived via the flush.
	raw := make([]byte, PageSize)
	m.ReadPage(id, raw)
	if !bytes.HasPrefix(raw, []byte("cleared")) {
		t.Fatal("Clear lost dirty data")
	}
	// Next pin is a physical read again (cold cache).
	before := bp.Stats().PhysicalReads
	if _, err := bp.Pin(id); err != nil {
		t.Fatal(err)
	}
	bp.Unpin(id)
	if bp.Stats().PhysicalReads != before+1 {
		t.Fatal("pin after Clear did not hit storage")
	}
}
