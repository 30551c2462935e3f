package core

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// shardCheckpointDir returns a data directory whose live checkpoint
// holds newApplyEngine's shard-sized engine (Close writes it), with no
// WAL tail behind it, and the checkpoint file's size.
func shardCheckpointDir(tb testing.TB) (string, int64) {
	tb.Helper()
	dir := tb.TempDir()
	eng, err := Open(dir, durTestOptions())
	if err != nil {
		tb.Fatal(err)
	}
	newApplyWorld().load(tb, eng)
	if err := eng.Close(); err != nil {
		tb.Fatal(err)
	}
	cur, _, err := readCurrent(dir)
	if err != nil {
		tb.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, cur.File))
	if err != nil {
		tb.Fatal(err)
	}
	return dir, fi.Size()
}

// BenchmarkCheckpoint times Engine.Checkpoint of the shard-sized engine
// (run with -benchmem: B/op and allocs/op are one checkpoint's). One
// 16-move batch between checkpoints, untimed, gives each a new version
// to write.
func BenchmarkCheckpoint(b *testing.B) {
	eng, err := Open(b.TempDir(), durTestOptions())
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	w := newApplyWorld()
	w.load(b, eng)
	ctx := context.Background()
	pages := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if rep := eng.ApplyUpdates(w.nextBatch(b)); len(rep.Errors) > 0 {
			b.Fatal(rep.Errors[0])
		}
		b.StartTimer()
		info, err := eng.Checkpoint(ctx)
		if err != nil {
			b.Fatal(err)
		}
		pages = info.Pages
	}
	b.ReportMetric(float64(pages), "pages")
}

// BenchmarkOpen times Open of a data directory holding the shard-sized
// engine's checkpoint and no WAL tail — a restart's restore — and the
// Close after it, which writes nothing.
func BenchmarkOpen(b *testing.B) {
	dir, size := shardCheckpointDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := Open(dir, durTestOptions())
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size)/1e6, "file-MB")
}

// TestOpenAllocationBudget pins what Open of the shard-sized engine's
// checkpoint allocates, and reports the file's size and the time Open
// took. Budgets are the measured values plus a grace; a change that
// moves them re-measures and says so.
func TestOpenAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a shard-sized engine")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the engine's")
	}
	const (
		bytesBudget = 9_100_000 // measured 8 632 056–8 639 172 with the checkpoint sealing the WAL, so Open reads no record (9 099 240–9 100 096 re-reading the checkpointed records frame by frame, buckets restored whole; 40 232 608 reading the WAL's active segment whole and inserting row by row; 81 329 968 from format 1)
		allocBudget = 7_400     // measured 6 981–6 993 (6 990–6 997; 19 372; 181 868)
	)
	dir, size := shardCheckpointDir(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	eng, err := Open(dir, durTestOptions())
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bytes := after.TotalAlloc - before.TotalAlloc
	allocs := after.Mallocs - before.Mallocs
	t.Logf("Open of %d objects and %d points from a %d-byte checkpoint: %d B in %d allocs, %v",
		eng.NumUncertain(), eng.NumPoints(), size, bytes, allocs, elapsed)
	if bytes > bytesBudget {
		t.Errorf("Open allocated %d B, budget %d", bytes, bytesBudget)
	}
	if allocs > allocBudget {
		t.Errorf("Open made %d allocations, budget %d", allocs, allocBudget)
	}
}
