package core

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// The write budget of one engine, where `go test` can hold it: an
// engine holding what shard 0 of the end-to-end benchmark's fleet holds
// (the lower half of the paper-sized world: ~27 900 of 53 000
// rectangles, ~29 200 of 62 000 points), loaded through 500-update
// batches as the fleet loads it, then moved by batches of 12 objects +
// 4 points with a step uniform in ±100 — half of the 32-move batch
// `ingest_standing` sends, which the router splits between two shards.
const (
	applyWorldRects   = 53000
	applyWorldPoints  = 62000
	applyShardTop     = dataset.Extent / 2
	applyLoadBatch    = 500
	applyBatchObjects = 12
	applyBatchPoints  = 4
	applyMoveStep     = 100.0
)

// applyWorld mirrors the engine's contents so successive move batches
// walk the objects the way a fleet's writers do.
type applyWorld struct {
	rects  []geom.Rect
	points []geom.Point
	rng    *rand.Rand
}

var applyWorldData struct {
	once   sync.Once
	rects  []geom.Rect
	points []geom.Point
}

// newApplyEngine builds the shard-sized engine and the world that
// mirrors it.
func newApplyEngine(tb testing.TB) (*Engine, *applyWorld) {
	tb.Helper()
	w := newApplyWorld()
	eng, err := NewEngine(nil, nil, EngineOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	w.load(tb, eng)
	return eng, w
}

// newApplyWorld returns the shard's world, its objects not yet built.
func newApplyWorld() *applyWorld {
	applyWorldData.once.Do(func() {
		rcfg := dataset.LongBeachConfig()
		rcfg.N = applyWorldRects
		pcfg := dataset.CaliforniaConfig()
		pcfg.N = applyWorldPoints
		for _, r := range dataset.GenerateRects(rcfg) {
			if r.Lo.Y < applyShardTop {
				applyWorldData.rects = append(applyWorldData.rects, r)
			}
		}
		for _, p := range dataset.GeneratePoints(pcfg) {
			if p.Y < applyShardTop {
				applyWorldData.points = append(applyWorldData.points, p)
			}
		}
	})
	return &applyWorld{
		rects:  append([]geom.Rect(nil), applyWorldData.rects...),
		points: append([]geom.Point(nil), applyWorldData.points...),
		rng:    rand.New(rand.NewSource(7)),
	}
}

// load applies the world to eng in load batches, as the fleet loads a
// shard.
func (w *applyWorld) load(tb testing.TB, eng *Engine) {
	tb.Helper()
	load := make([]Update, 0, len(w.rects)+len(w.points))
	for i, r := range w.rects {
		load = append(load, objectUpsert(tb, i, r))
	}
	for i, p := range w.points {
		load = append(load, Update{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: uncertain.ID(i), Loc: p}})
	}
	for len(load) > 0 {
		n := min(applyLoadBatch, len(load))
		if rep := eng.ApplyUpdates(load[:n]); len(rep.Errors) > 0 || rep.Applied != n {
			tb.Fatalf("load batch: applied %d of %d, errors %v", rep.Applied, n, rep.Errors)
		}
		load = load[n:]
	}
}

func objectUpsert(tb testing.TB, id int, r geom.Rect) Update {
	o, err := uncertain.NewObject(uncertain.ID(id), pdf.MustUniform(r), uncertain.PaperCatalogProbs())
	if err != nil {
		tb.Fatal(err)
	}
	return Update{Op: OpUpsertObject, Object: o}
}

func (w *applyWorld) step() geom.Vec {
	return geom.Vec{X: (w.rng.Float64()*2 - 1) * applyMoveStep, Y: (w.rng.Float64()*2 - 1) * applyMoveStep}
}

// nextBatch draws one move batch and applies it to the world; the
// objects are built here, outside whatever the caller times.
func (w *applyWorld) nextBatch(tb testing.TB) []Update {
	batch := make([]Update, 0, applyBatchObjects+applyBatchPoints)
	for range applyBatchObjects {
		id := w.rng.Intn(len(w.rects))
		r := w.rects[id].Translate(w.step())
		r = r.Translate(geom.Vec{
			X: max(0, -r.Lo.X) + min(0, dataset.Extent-r.Hi.X),
			Y: max(0, -r.Lo.Y) + min(0, applyShardTop-r.Lo.Y),
		})
		w.rects[id] = r
		batch = append(batch, objectUpsert(tb, id, r))
	}
	for range applyBatchPoints {
		id := w.rng.Intn(len(w.points))
		d, p := w.step(), w.points[id]
		p = geom.Pt(min(max(p.X+d.X, 0), dataset.Extent), min(max(p.Y+d.Y, 0), applyShardTop))
		w.points[id] = p
		batch = append(batch, Update{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: uncertain.ID(id), Loc: p}})
	}
	return batch
}

// BenchmarkApplyUpdates times Engine.ApplyUpdates on one 16-move batch
// (run with -benchmem: B/op and allocs/op are the batch's).
func BenchmarkApplyUpdates(b *testing.B) {
	eng, w := newApplyEngine(b)
	batches := make([][]Update, b.N)
	for i := range batches {
		batches[i] = w.nextBatch(b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, batch := range batches {
		if rep := eng.ApplyUpdates(batch); rep.Applied != len(batch) {
			b.Fatalf("applied %d of %d: %v", rep.Applied, len(batch), rep.Errors)
		}
	}
}

// TestApplyUpdatesAllocationBudget pins what one 16-move batch
// allocates — the copy-on-write cost of a write, which is what the
// garbage collector then has to pay for. Budgets are the measured
// values plus a small grace; a change that moves them re-measures and
// says so, as for TestEvaluateAllocationBudget.
func TestApplyUpdatesAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a shard-sized engine")
	}
	const (
		batches     = 200
		bytesBudget = 142_500 // measured 135 751–135 987 with 64-entry PTI leaves and 40-byte entries (134 583 with 11-entry leaves and 48-byte entries; 273 034 before the incremental envelopes and the allocation diet)
		allocBudget = 270     // measured 256.4–256.6 (345.5; 605)
	)
	eng, w := newApplyEngine(t)
	work := make([][]Update, batches)
	for i := range work {
		work[i] = w.nextBatch(t)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, batch := range work {
		if rep := eng.ApplyUpdates(batch); rep.Applied != len(batch) {
			t.Fatalf("applied %d of %d: %v", rep.Applied, len(batch), rep.Errors)
		}
	}
	runtime.ReadMemStats(&after)
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / batches
	allocsPer := float64(after.Mallocs-before.Mallocs) / batches
	t.Logf("per 16-move batch: %.0f B, %.1f allocs", bytesPer, allocsPer)
	if bytesPer > bytesBudget {
		t.Errorf("ApplyUpdates = %.0f B/batch, budget %d", bytesPer, bytesBudget)
	}
	if allocsPer > allocBudget {
		t.Errorf("ApplyUpdates = %.1f allocs/batch, budget %d", allocsPer, allocBudget)
	}
}

// TestEngineHeapBudget pins the live heap the shard-sized engine holds
// per uncertain object — the footprint that caps how many objects a
// node can serve — fresh, and after Close and Open of the same state
// (checkpoint restore). A leaf record is its rectangle: a table row and
// a PTI leaf entry without a payload row. Budgets are the measured
// values plus a small grace, as for the allocation budgets; a change
// that moves them re-measures and says so.
func TestEngineHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a shard-sized engine")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the engine's")
	}
	const (
		freshBudget    = 225 // bytes per uncertain object; measured 210 with 64-entry PTI leaves and 40-byte entries (283 with 11-entry leaves and 48-byte entries; 1 156 when every object kept its pdf, catalog and PTI row)
		restoredBudget = 195 // measured 182 (264; 1 174)
	)
	liveHeap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	dir := t.TempDir()
	w := newApplyWorld()
	base := liveHeap()
	eng, err := Open(dir, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	w.load(t, eng)
	n := float64(eng.NumUncertain())
	fresh := (liveHeap() - base) / n
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng = nil
	base = liveHeap()
	eng, err = Open(dir, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if got := float64(eng.NumUncertain()); got != n {
		t.Fatalf("reopened engine holds %v objects, want %v", got, n)
	}
	restored := (liveHeap() - base) / n
	t.Logf("live heap per uncertain object: fresh %.0f B, restored %.0f B (%.0f objects, %d points)",
		fresh, restored, n, eng.NumPoints())
	if fresh > freshBudget {
		t.Errorf("fresh engine holds %.0f B per object, budget %d", fresh, freshBudget)
	}
	if restored > restoredBudget {
		t.Errorf("restored engine holds %.0f B per object, budget %d", restored, restoredBudget)
	}
}

// TestCheckpointAllocationBudget pins what one Checkpoint of the
// shard-sized engine allocates. A leaf record is written as its id and
// rectangle, and its PTI leaf cell holds no row, so the writer builds
// and derives nothing per object; what is left is the walk's node list
// and id remap. Budgets are the measured values plus a grace.
func TestCheckpointAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a shard-sized engine")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the engine's")
	}
	const (
		bytesBudget = 105_000 // measured 92 048–97 328 for 27 937 objects in 1 631 pages of format 2, 95 464 as the test binary's first checkpoint (1 561 000 in 8 008 pages of format 1; 27.5 MB when each leaf record's object was rebuilt to encode it)
		allocBudget = 230     // measured 143–148, 202 as the first checkpoint (3 938–3 996; 171 624)
	)
	dir := t.TempDir()
	eng, err := Open(dir, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	newApplyWorld().load(t, eng)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	info, err := eng.Checkpoint(context.Background())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	allocs := after.Mallocs - before.Mallocs
	t.Logf("Checkpoint of %d objects, %d pages: %d B in %d allocs, %v", eng.NumUncertain(), info.Pages, bytes, allocs, info.Duration)
	if bytes > bytesBudget {
		t.Errorf("Checkpoint allocated %d B, budget %d", bytes, bytesBudget)
	}
	if allocs > allocBudget {
		t.Errorf("Checkpoint made %d allocations, budget %d", allocs, allocBudget)
	}
}
