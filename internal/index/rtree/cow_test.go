package rtree

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// shadow is the reference model: the exact entry multiset a tree
// version should hold.
type shadow map[Ref]geom.Rect

func (s shadow) clone() shadow {
	out := make(shadow, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// collect reads every entry of the tree into a shadow.
func collect(t *testing.T, tr *Tree) shadow {
	t.Helper()
	b, err := rootBounds(tr)
	if err != nil {
		t.Fatalf("bounds: %v", err)
	}
	out := make(shadow)
	if tr.Len() == 0 {
		return out
	}
	if _, err := tr.SearchCounted(b, nil, func(e Entry, _ []float64) bool {
		out[e.Ref] = e.Rect
		return true
	}); err != nil {
		t.Fatalf("search: %v", err)
	}
	return out
}

func checkShadow(t *testing.T, tr *Tree, want shadow, label string) {
	t.Helper()
	got := collect(t, tr)
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for ref, r := range want {
		gr, ok := got[ref]
		if !ok {
			t.Fatalf("%s: ref %d missing", label, ref)
		}
		if !gr.ApproxEqual(r) {
			t.Fatalf("%s: ref %d rect %v, want %v", label, ref, gr, r)
		}
	}
}

func randRect(rng *rand.Rand) geom.Rect {
	c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	return geom.RectCentered(c, 1+rng.Float64()*10, 1+rng.Float64()*10)
}

// TestCOWVersionIsolation drives a chain of copy-on-write versions and
// verifies every sealed version still answers exactly its own
// contents after arbitrary later mutations — the property the
// engine's snapshot isolation is built on.
func TestCOWVersionIsolation(t *testing.T) {
	for _, storeKind := range []string{"mem"} {
		t.Run(storeKind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			store := NewMemNodeStore()
			cfg := Config{MaxEntries: 8}

			cur, err := BulkLoad(store, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			model := make(shadow)
			// Seed version 0 with in-place inserts (legacy mode).
			for i := 0; i < 300; i++ {
				r := randRect(rng)
				if err := cur.Insert(r, Ref(i), nil); err != nil {
					t.Fatal(err)
				}
				model[Ref(i)] = r
			}
			if err := cur.CheckInvariants(false); err != nil {
				t.Fatalf("seed invariants: %v", err)
			}

			type version struct {
				tree  *Tree
				model shadow
			}
			versions := []version{{cur, model.clone()}}
			var retired [][]NodeID
			next := 300

			for v := 0; v < 8; v++ {
				clone := versions[len(versions)-1].tree.CloneCOW()
				m := versions[len(versions)-1].model.clone()
				// A batch of mixed inserts, deletes and moves.
				for op := 0; op < 40; op++ {
					switch rng.Intn(3) {
					case 0:
						r := randRect(rng)
						if err := clone.Insert(r, Ref(next), nil); err != nil {
							t.Fatal(err)
						}
						m[Ref(next)] = r
						next++
					case 1:
						for ref, r := range m {
							ok, err := clone.Delete(r, ref)
							if err != nil {
								t.Fatal(err)
							}
							if !ok {
								t.Fatalf("version %d: delete of present ref %d not found", v, ref)
							}
							delete(m, ref)
							break
						}
					case 2:
						for ref, r := range m {
							ok, err := clone.Delete(r, ref)
							if err != nil || !ok {
								t.Fatalf("move delete: %v %v", ok, err)
							}
							nr := randRect(rng)
							if err := clone.Insert(nr, ref, nil); err != nil {
								t.Fatal(err)
							}
							m[ref] = nr
							break
						}
					}
				}
				ids, err := clone.Seal()
				if err != nil {
					t.Fatalf("seal version %d: %v", v+1, err)
				}
				retired = append(retired, ids)
				if err := clone.CheckInvariants(false); err != nil {
					t.Fatalf("version %d invariants: %v", v+1, err)
				}
				versions = append(versions, version{clone, m})

				// Every sealed version, old and new, must still answer
				// exactly its own model.
				for i, ver := range versions {
					checkShadow(t, ver.tree, ver.model, fmt.Sprintf("version %d after sealing %d", i, v+1))
				}
			}

			// Reclaim everything but the newest version; it must stay
			// intact (nothing it references may have been retired).
			newest := versions[len(versions)-1]
			for _, ids := range retired {
				if err := newest.tree.FreeAll(ids); err != nil {
					t.Fatalf("free retired: %v", err)
				}
			}
			checkShadow(t, newest.tree, newest.model, "newest after reclamation")
			if err := newest.tree.CheckInvariants(false); err != nil {
				t.Fatalf("newest invariants after reclamation: %v", err)
			}
		})
	}
}

// TestCOWFreshNodesMutateInPlace checks the batch-amortization
// property: mutating the same region repeatedly within one unsealed
// version does not retire nodes the version itself allocated.
func TestCOWFreshNodesMutateInPlace(t *testing.T) {
	store := NewMemNodeStore()
	base, err := BulkLoad(store, Config{MaxEntries: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		if err := base.Insert(randRect(rng), Ref(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	clone := base.CloneCOW()
	r := randRect(rng)
	if err := clone.Insert(r, Ref(1000), nil); err != nil {
		t.Fatal(err)
	}
	afterOne := len(clone.cow.retired)
	// Re-touching the same leaf must reuse the fresh copies.
	for k := 0; k < 10; k++ {
		ok, err := clone.Delete(r, Ref(1000))
		if err != nil || !ok {
			t.Fatalf("delete: %v %v", ok, err)
		}
		if err := clone.Insert(r, Ref(1000), nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(clone.cow.retired); got > afterOne+2 {
		t.Fatalf("retired grew from %d to %d re-touching one path; fresh nodes not reused", afterOne, got)
	}
}

// TestCOWAbortDiscardsCleanly: aborting an unsealed clone frees every
// node it allocated and leaves the base version byte-for-byte intact —
// the failed-mutation discard path.
func TestCOWAbortDiscardsCleanly(t *testing.T) {
	store := NewMemNodeStore()
	base, err := BulkLoad(store, Config{MaxEntries: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	model := make(shadow)
	for i := 0; i < 300; i++ {
		r := randRect(rng)
		if err := base.Insert(r, Ref(i), nil); err != nil {
			t.Fatal(err)
		}
		model[Ref(i)] = r
	}
	liveBefore := store.NumNodes()

	clone := base.CloneCOW()
	for i := 0; i < 50; i++ {
		if err := clone.Insert(randRect(rng), Ref(1000+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	for ref, r := range model {
		if ok, err := clone.Delete(r, ref); err != nil || !ok {
			t.Fatalf("clone delete: %v %v", ok, err)
		}
		break
	}
	if err := clone.AbortCOW(); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if got := store.NumNodes(); got != liveBefore {
		t.Fatalf("abort leaked nodes: %d live, want %d", got, liveBefore)
	}
	checkShadow(t, base, model, "base after aborted clone")
	if err := base.CheckInvariants(false); err != nil {
		t.Fatalf("base invariants after abort: %v", err)
	}
}

// TestCOWConcurrentReadersDuringWrite races searches over a sealed
// version against a writer building the next one — the MVCC access
// pattern. Run with -race.
func TestCOWConcurrentReadersDuringWrite(t *testing.T) {
	store := NewMemNodeStore()
	base, err := BulkLoad(store, Config{MaxEntries: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	model := make(shadow)
	for i := 0; i < 500; i++ {
		r := randRect(rng)
		if err := base.Insert(r, Ref(i), nil); err != nil {
			t.Fatal(err)
		}
		model[Ref(i)] = r
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := geom.RectFromCorners(geom.Pt(0, 0), geom.Pt(1000, 1000))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				if _, err := base.SearchCounted(q, nil, func(Entry, []float64) bool { n++; return true }); err != nil {
					t.Errorf("search: %v", err)
					return
				}
				if n != 500 {
					t.Errorf("reader saw %d entries, want 500", n)
					return
				}
			}
		}()
	}

	cur := base
	wrng := rand.New(rand.NewSource(13))
	for v := 0; v < 20; v++ {
		clone := cur.CloneCOW()
		for i := 0; i < 30; i++ {
			if err := clone.Insert(randRect(wrng), Ref(10000+v*100+i), nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := clone.Seal(); err != nil { // retired ids deliberately leaked: readers still hold base
			t.Error(err)
			return
		}
		cur = clone
	}
	close(stop)
	wg.Wait()
}

// TestCOWRefusesForeignNode forges the call no mutation path makes: an
// unsealed version asked to store a node it never allocated. Over a
// paged store that write would land in a page the published version
// still reads (it did, before storeNode checked), so it must come back
// as ErrForeignNode with the published version untouched.
func TestCOWRefusesForeignNode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := storage.NewBufferPool(storage.NewMemStore(), 64)
	base, err := BulkLoad(NewPagedNodeStore(pool, 0), Config{MaxEntries: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make(shadow)
	for i := 0; i < 100; i++ {
		r := randRect(rng)
		if err := base.Insert(r, Ref(i), nil); err != nil {
			t.Fatal(err)
		}
		want[Ref(i)] = r
	}

	clone := base.CloneCOW()
	shared, err := clone.loadNode(base.root)
	if err != nil {
		t.Fatal(err)
	}
	shared.Entries = shared.Entries[:1] // what an in-place write would publish
	if err := clone.storeNode(shared); !errors.Is(err, ErrForeignNode) {
		t.Fatalf("storeNode of a shared node: %v, want ErrForeignNode", err)
	}
	if _, err := clone.Seal(); err != nil {
		t.Fatal(err)
	}
	checkShadow(t, base, want, "published version after the forged write")
	if err := base.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}

	// The version's own nodes are still writable.
	clone = base.CloneCOW()
	if err := clone.Insert(randRect(rng), 1000, nil); err != nil {
		t.Fatalf("insert on a fresh clone: %v", err)
	}
}
