package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateStore wraps MemStore, blocking every ReadPage until release is
// closed and counting the reads that actually reached it, so tests can
// hold many pinners in flight against one physical fetch.
type gateStore struct {
	*MemStore
	release chan struct{}
	reads   atomic.Int64
	failing atomic.Bool
}

var errInjected = errors.New("injected read failure")

func (g *gateStore) ReadPage(id PageID, buf []byte) error {
	<-g.release
	g.reads.Add(1)
	if g.failing.Load() {
		return errInjected
	}
	return g.MemStore.ReadPage(id, buf)
}

// TestPinSingleFlight drives many goroutines at the same non-resident
// page: exactly one physical read must reach the store (the miss loads
// under the pool mutex, everyone behind it hits), every pinner must see
// the page contents, and pin accounting must drain cleanly.
func TestPinSingleFlight(t *testing.T) {
	gs := &gateStore{MemStore: NewMemStore(), release: make(chan struct{})}
	id, err := gs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("page-payload")
	buf := make([]byte, PageSize)
	copy(buf, want)
	if err := gs.MemStore.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}

	bp := NewBufferPool(gs, 4)
	const pinners = 16
	var wg sync.WaitGroup
	errs := make(chan error, pinners)
	for i := 0; i < pinners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, err := bp.Pin(id)
			if err != nil {
				errs <- err
				return
			}
			if string(data[:len(want)]) != string(want) {
				errs <- fmt.Errorf("pinner saw wrong data %q", data[:len(want)])
				return
			}
			errs <- bp.Unpin(id)
		}()
	}
	close(gs.release) // let the single loader through
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := gs.reads.Load(); got != 1 {
		t.Fatalf("physical reads = %d, want 1 (single flight)", got)
	}
	st := bp.Stats()
	if st.LogicalReads != pinners || st.PhysicalReads != 1 {
		t.Fatalf("stats = %+v, want %d logical / 1 physical", st, pinners)
	}
	// All pins released: the frame must be evictable again.
	if err := bp.Clear(); err != nil {
		t.Fatalf("Clear after unpin: %v", err)
	}
}

// blockingWriteStore wraps MemStore, holding every WritePage until
// release is closed while letting reads through untouched — a stand-in
// for a disk whose writes are slow.
type blockingWriteStore struct {
	*MemStore
	started chan struct{} // closed when the first write arrives
	release chan struct{}
	once    sync.Once
}

func (b *blockingWriteStore) WritePage(id PageID, buf []byte) error {
	b.once.Do(func() { close(b.started) })
	<-b.release
	return b.MemStore.WritePage(id, buf)
}

// TestPinWaitsForEvictionWriteBack checks the invariant the pool is
// built around, without the race detector: a page is either resident
// or on the store, never in between. While the eviction write-back of
// dirty page A is parked inside WritePage, a Pin(A) from a second
// goroutine must not return; once the write completes the store holds
// A's pre-eviction bytes and the re-pinned frame reads the same bytes.
// A pool that kept A pinnable mid-write would let a pinner scribble on
// the image being persisted.
func TestPinWaitsForEvictionWriteBack(t *testing.T) {
	bs := &blockingWriteStore{
		MemStore: NewMemStore(),
		started:  make(chan struct{}),
		release:  make(chan struct{}),
	}
	a, _ := bs.Allocate()
	b, _ := bs.Allocate()
	c, _ := bs.Allocate()
	bp := NewBufferPool(bs, 2)

	want := bytes.Repeat([]byte("pre-eviction"), PageSize/12+1)[:PageSize]
	data, err := bp.Pin(a)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, want)
	bp.MarkDirty(a)
	if err := bp.Unpin(a); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Pin(b); err != nil {
		t.Fatal(err)
	}
	if err := bp.Unpin(b); err != nil {
		t.Fatal(err)
	}

	evictor := make(chan error, 1)
	go func() {
		_, err := bp.Pin(c) // evicts A: its write-back parks in WritePage
		evictor <- err
	}()
	<-bs.started

	type pinned struct {
		data []byte
		err  error
	}
	repin := make(chan pinned, 1)
	go func() {
		data, err := bp.Pin(a)
		repin <- pinned{data, err}
	}()
	select {
	case <-repin:
		t.Fatal("Pin(A) returned while A's eviction write-back was still in flight")
	case <-time.After(100 * time.Millisecond):
	}

	close(bs.release)
	if err := <-evictor; err != nil {
		t.Fatal(err)
	}
	got := <-repin // evicts B, reads A back from the store
	if got.err != nil {
		t.Fatal(got.err)
	}
	raw := make([]byte, PageSize)
	if err := bs.MemStore.ReadPage(a, raw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("store does not hold A's pre-eviction bytes")
	}
	if !bytes.Equal(got.data, want) {
		t.Fatal("re-pinned frame differs from the bytes written back")
	}
}

// TestPoolConcurrentTraffic hammers a pool far smaller than its page
// set from many goroutines (reads, dirty writes, evictions,
// write-backs) and then verifies every page holds its last written
// value — the consistency sweep, meant for -race.
func TestPoolConcurrentTraffic(t *testing.T) {
	m := NewMemStore()
	const pages = 256
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i], _ = m.Allocate()
	}
	bp := NewBufferPool(m, 32)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns a disjoint page range so last-writer
			// bookkeeping needs no cross-goroutine coordination.
			lo, hi := w*pages/workers, (w+1)*pages/workers
			for op := 0; op < 600; op++ {
				id := ids[lo+(op*13)%(hi-lo)]
				data, err := bp.Pin(id)
				if err != nil {
					errs <- err
					return
				}
				data[0] = byte(w)
				data[1] = byte(op)
				bp.MarkDirty(id)
				if err := bp.Unpin(id); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	// Every page's last write must be visible through a fresh pin.
	if err := bp.Clear(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		lo, hi := w*pages/workers, (w+1)*pages/workers
		last := make(map[PageID]byte)
		for op := 0; op < 600; op++ {
			id := ids[lo+(op*13)%(hi-lo)]
			last[id] = byte(op)
		}
		for id, wantOp := range last {
			data, err := bp.Pin(id)
			if err != nil {
				t.Fatal(err)
			}
			if data[0] != byte(w) || data[1] != wantOp {
				t.Fatalf("page %d = (%d,%d), want (%d,%d)", id, data[0], data[1], w, wantOp)
			}
			bp.Unpin(id)
		}
	}
}

// TestWriteBackErrorSurfaces checks that a failed eviction write is
// not silently dropped: it fails the Pin that needed the room, the
// page stays resident and dirty, Flush keeps reporting the error, and
// — once the store recovers — a later Flush succeeds and persists the
// data (one transient fault must not poison the pool forever).
func TestWriteBackErrorSurfaces(t *testing.T) {
	fs := &failingWriteStore{MemStore: NewMemStore()}
	fs.failing.Store(true)
	id0, _ := fs.Allocate()
	id1, _ := fs.Allocate()
	bp := NewBufferPool(fs, 1)

	data, err := bp.Pin(id0)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, []byte("must-not-vanish"))
	bp.MarkDirty(id0)
	bp.Unpin(id0)
	if _, err := bp.Pin(id1); !errors.Is(err, errInjected) { // evicts id0, write fails
		t.Fatalf("Pin over a failing eviction = %v, want %v", err, errInjected)
	}
	if err := bp.Unpin(id1); !errors.Is(err, ErrBadPinCount) {
		t.Fatalf("failed Pin left a pin behind: Unpin = %v", err)
	}

	if err := bp.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("Flush after failed write-back = %v, want %v", err, errInjected)
	}
	// The dirty copy must still be in memory.
	before := bp.Stats().PhysicalReads
	back, err := bp.Pin(id0)
	if err != nil {
		t.Fatal(err)
	}
	if string(back[:len("must-not-vanish")]) != "must-not-vanish" || bp.Stats().PhysicalReads != before {
		t.Fatal("failed write-back lost the only copy of the page")
	}
	bp.Unpin(id0)

	// Store recovers: the retained dirty page flushes cleanly and the
	// pool is healthy again.
	fs.failing.Store(false)
	if err := bp.Flush(); err != nil {
		t.Fatalf("Flush after store recovery: %v", err)
	}
	raw := make([]byte, PageSize)
	if err := fs.MemStore.ReadPage(id0, raw); err != nil {
		t.Fatal(err)
	}
	if string(raw[:len("must-not-vanish")]) != "must-not-vanish" {
		t.Fatal("recovered Flush did not persist the page")
	}
	if _, err := bp.Pin(id1); err != nil {
		t.Fatalf("Pin after store recovery: %v", err)
	}
}

type failingWriteStore struct {
	*MemStore
	failing atomic.Bool
}

func (f *failingWriteStore) WritePage(id PageID, buf []byte) error {
	if f.failing.Load() {
		return errInjected
	}
	return f.MemStore.WritePage(id, buf)
}

// TestPinLoadFailure injects a ReadPage error under concurrent pinners:
// every waiter must receive the error, the frame must not stay cached,
// and a later Pin (store healthy again) must succeed with clean pin
// accounting — a failed load installs nothing.
func TestPinLoadFailure(t *testing.T) {
	gs := &gateStore{MemStore: NewMemStore(), release: make(chan struct{})}
	id, err := gs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	gs.failing.Store(true)

	bp := NewBufferPool(gs, 4)
	const pinners = 8
	var wg sync.WaitGroup
	got := make(chan error, pinners)
	for i := 0; i < pinners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := bp.Pin(id)
			got <- err
		}()
	}
	close(gs.release)
	wg.Wait()
	close(got)
	for err := range got {
		if !errors.Is(err, errInjected) {
			t.Fatalf("pinner error = %v, want %v", err, errInjected)
		}
	}
	if n := bp.Resident(); n != 0 {
		t.Fatalf("failed frame still resident (%d pages)", n)
	}

	// Recovery: the store works again, so the page must load fresh and
	// the pin must be releasable (no leaked pin counts from the failed
	// round).
	gs.failing.Store(false)
	if _, err := bp.Pin(id); err != nil {
		t.Fatalf("Pin after recovery: %v", err)
	}
	if err := bp.Unpin(id); err != nil {
		t.Fatalf("Unpin after recovery: %v", err)
	}
	if err := bp.Unpin(id); err == nil {
		t.Fatal("double Unpin succeeded; pin accounting leaked")
	}
}
