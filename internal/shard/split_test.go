package shard

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/serve"
)

// TestRouterSplitIsStateless routes the benchmark's bulk load — 53 000
// Long Beach rectangles and 62 000 California points, in 500-update
// batches, on the benchmark's two-shard 4x2 grid — through split. Every
// update lands exactly once in every shard's sub-batch, in batch order:
// as itself on the shards its geometry overlaps, as a delete of its id
// on the others. The router keeps nothing per routed id: live heap
// grows by less than a byte per id.
func TestRouterSplitIsStateless(t *testing.T) {
	m, err := Parse("grid:4x2@0,0,10000,10000;shards=2")
	if err != nil {
		t.Fatal(err)
	}
	rcfg := dataset.LongBeachConfig()
	rcfg.N = 53000
	pcfg := dataset.CaliforniaConfig()
	pcfg.N = 62000
	rects, pts := dataset.GenerateRects(rcfg), dataset.GeneratePoints(pcfg)
	var load []serve.UpdateJSON
	for i, r := range rects {
		load = append(load, serve.UpdateJSON{Op: "upsert_object", ID: int64(i), Region: []float64{r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y}})
	}
	for i, p := range pts {
		load = append(load, serve.UpdateJSON{Op: "upsert_point", ID: int64(i), X: p.X, Y: p.Y})
	}

	liveHeap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	// The shards are never contacted: split only routes.
	r, err := NewRouter(m, []*Client{{BaseURL: "http://127.0.0.1:1"}, {BaseURL: "http://127.0.0.1:1"}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	replicas := 0
	for rest := load; len(rest) > 0; {
		n := min(500, len(rest))
		batches := r.split(rest[:n])
		for s, b := range batches {
			if len(b) != n {
				t.Fatalf("shard %d sub-batch holds %d updates, want the batch's %d", s, len(b), n)
			}
		}
		for k, u := range rest[:n] {
			var owners []int
			evict := "delete_point"
			if u.Op == "upsert_object" {
				owners, evict = m.ShardsOverlapping(geom.Rect{Lo: geom.Pt(u.Region[0], u.Region[1]), Hi: geom.Pt(u.Region[2], u.Region[3])}), "delete_object"
			} else {
				owners = []int{m.ShardOf(geom.Pt(u.X, u.Y))}
			}
			replicas += len(owners)
			for s, b := range batches {
				want := serve.UpdateJSON{Op: evict, ID: u.ID}
				if slices.Contains(owners, s) {
					want = u
				}
				if got := b[k]; got.Op != want.Op || got.ID != want.ID || !slices.Equal(got.Region, want.Region) || got.X != want.X || got.Y != want.Y {
					t.Fatalf("update %d (%s %d) reached shard %d as %+v, want %+v", k, u.Op, u.ID, s, got, want)
				}
			}
		}
		rest = rest[n:]
	}
	perID := (liveHeap() - base) / float64(len(load))
	runtime.KeepAlive(load)
	runtime.KeepAlive(r)
	if replicas <= len(load) {
		t.Fatalf("%d copies of %d updates: the load straddles no shard border", replicas, len(load))
	}
	t.Logf("router: %+.2f B of live heap per routed id; %d copies of %d updates", perID, replicas, len(load))
	if perID >= 1 {
		t.Errorf("router holds %.2f B of live heap per routed id, want < 1", perID)
	}
}
