package rtree

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// errInjected marks injected faults.
var errInjected = errors.New("injected storage fault")

// faultStore wraps a storage.Store and fails every operation once the
// countdown reaches zero, exercising the index's error propagation.
type faultStore struct {
	inner     storage.Store
	countdown atomic.Int64
}

func newFaultStore(inner storage.Store, budget int) *faultStore {
	f := &faultStore{inner: inner}
	f.countdown.Store(int64(budget))
	return f
}

func (f *faultStore) tick() error {
	if f.countdown.Add(-1) < 0 {
		return errInjected
	}
	return nil
}

func (f *faultStore) Allocate() (storage.PageID, error) {
	if err := f.tick(); err != nil {
		return storage.InvalidPage, err
	}
	return f.inner.Allocate()
}

func (f *faultStore) ReadPage(id storage.PageID, buf []byte) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.ReadPage(id, buf)
}

func (f *faultStore) WritePage(id storage.PageID, buf []byte) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.inner.WritePage(id, buf)
}

func (f *faultStore) NumPages() int { return f.inner.NumPages() }

// TestFaultsSurfaceAsErrors drives a paged tree into storage faults at
// every point of its lifecycle and checks that each one surfaces as an
// error (no panics, no silent corruption reported as success).
func TestFaultsSurfaceAsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	items := randItems(rng, 300, 500)

	// Find the total operation count of a clean run, then re-run with
	// the fault injected at a sample of positions.
	clean := newFaultStore(storage.NewMemStore(), 1<<30)
	pool := storage.NewBufferPool(clean, 8)
	tr, err := BulkLoad(NewPagedNodeStore(pool, 0), Config{MaxEntries: 8, MinEntries: 2}, items)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := searchRefs(tr, randItems(rng, 1, 500)[0].Rect); err != nil {
		t.Fatal(err)
	}
	totalOps := int((1 << 30) - clean.countdown.Load())
	if totalOps < 10 {
		t.Fatalf("suspiciously few storage ops: %d", totalOps)
	}

	positions := []int{0, 1, 2, totalOps / 4, totalOps / 2, totalOps - 1}
	for _, pos := range positions {
		fs := newFaultStore(storage.NewMemStore(), pos)
		pool := storage.NewBufferPool(fs, 8)
		tr, err := BulkLoad(NewPagedNodeStore(pool, 0), Config{MaxEntries: 8, MinEntries: 2}, items)
		if err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("pos %d: unexpected error type: %v", pos, err)
			}
			continue // fault fired during load: correctly surfaced
		}
		// Load survived; the fault must fire during search (or the
		// budget ran out, in which case search succeeds).
		_, _, err = searchRefs(tr, randItems(rng, 1, 500)[0].Rect)
		if err != nil && !errors.Is(err, errInjected) {
			t.Fatalf("pos %d: unexpected search error: %v", pos, err)
		}
	}
}

// TestInsertFaultsSurfaceAsErrors does the same for dynamic inserts
// and deletes.
func TestInsertFaultsSurfaceAsErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	items := randItems(rng, 150, 300)
	for _, budget := range []int{5, 50, 500, 2000} {
		fs := newFaultStore(storage.NewMemStore(), budget)
		pool := storage.NewBufferPool(fs, 8)
		tr, err := BulkLoad(NewPagedNodeStore(pool, 0), Config{MaxEntries: 8, MinEntries: 2}, nil)
		if err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("budget %d: unexpected BulkLoad error: %v", budget, err)
			}
			continue
		}
		var failed bool
		for _, it := range items {
			if err := tr.Insert(it.Rect, it.Ref, nil); err != nil {
				if !errors.Is(err, errInjected) {
					t.Fatalf("budget %d: unexpected insert error: %v", budget, err)
				}
				failed = true
				break
			}
		}
		if failed {
			continue
		}
		for _, it := range items[:50] {
			if _, err := tr.Delete(it.Rect, it.Ref); err != nil {
				if !errors.Is(err, errInjected) {
					t.Fatalf("budget %d: unexpected delete error: %v", budget, err)
				}
				break
			}
		}
	}
}
