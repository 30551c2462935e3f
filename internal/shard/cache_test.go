package shard

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// TestRouterCacheHeapBudget pins the live heap the router's ownership
// cache holds per placed id after the benchmark's bulk load: 53 000
// Long Beach rectangles and 62 000 California points, in 500-update
// batches, on the benchmark's two-shard 4x2 grid. The cache keeps one
// shard index per id (a map slot) and a replica list only for the few
// objects that straddle a shard border. The budget is the measured
// value plus a grace.
func TestRouterCacheHeapBudget(t *testing.T) {
	const budget = 36 // bytes per id; measured 31 (52 when each object cached an owner and a replica slice)
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
	// The shards are never contacted: split only routes and caches.
	r, err := NewRouter(m, []*Client{{BaseURL: "http://127.0.0.1:1"}, {BaseURL: "http://127.0.0.1:1"}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	routed := 0
	for rest := load; len(rest) > 0; {
		n := min(500, len(rest))
		for _, b := range r.split(rest[:n]) {
			routed += len(b)
		}
		rest = rest[n:]
	}
	perID := (liveHeap() - base) / float64(len(load))
	runtime.KeepAlive(load)
	if routed != len(load)+len(r.straddlers) {
		t.Fatalf("routed %d updates, want %d and one more per extra replica of %d straddlers", routed, len(load), len(r.straddlers))
	}
	if len(r.points) != len(pts) || len(r.objects) != len(rects) {
		t.Fatalf("cache holds %d points and %d objects, want %d and %d", len(r.points), len(r.objects), len(pts), len(rects))
	}
	t.Logf("ownership cache: %.1f B per id (%d points, %d objects, %d straddlers)", perID, len(r.points), len(r.objects), len(r.straddlers))
	if perID > budget {
		t.Errorf("ownership cache holds %.1f B per id, budget %d", perID, budget)
	}
}
