package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// A shard's share of a range request, where `go test` can hold it:
// newApplyEngine's shard-sized engine asked the end-to-end benchmark's
// C-IUQ question — a 500×500 uniform issuer centred on a point of the
// California model (clamped inside the world), w = h = 500, threshold
// 0.5.
const (
	rangeBenchIssuerHalf = 250.0
	rangeBenchHalf       = 500.0
	rangeBenchThreshold  = 0.5
	rangeBenchQueries    = 64
)

// rangeBenchRequests draws the issuers from the engine's own points.
func rangeBenchRequests(tb testing.TB, w *applyWorld) []Request {
	tb.Helper()
	rng := rand.New(rand.NewSource(13))
	reqs := make([]Request, rangeBenchQueries)
	for i := range reqs {
		c := w.points[rng.Intn(len(w.points))]
		c.X = min(max(c.X, rangeBenchIssuerHalf), dataset.Extent-rangeBenchIssuerHalf)
		c.Y = min(max(c.Y, rangeBenchIssuerHalf), dataset.Extent-rangeBenchIssuerHalf)
		iss, err := uncertain.NewObject(-1, pdf.MustUniform(geom.RectCentered(c, rangeBenchIssuerHalf, rangeBenchIssuerHalf)), uncertain.PaperCatalogProbs())
		if err != nil {
			tb.Fatal(err)
		}
		reqs[i] = RequestUncertain(iss, rangeBenchHalf, rangeBenchHalf, rangeBenchThreshold)
	}
	return reqs
}

// BenchmarkEvaluateRange times Snapshot.Evaluate on range_ro's question
// (run with -benchmem: B/op and allocs/op are one request's). Every
// object is a leaf record, so the filter and refinement read the PTI
// leaf entries, not the object table.
func BenchmarkEvaluateRange(b *testing.B) {
	eng, w := newApplyEngine(b)
	reqs := rangeBenchRequests(b, w)
	snap := eng.Snapshot()
	defer snap.Close()
	ctx := context.Background()
	candidates, matches, nodes := 0, 0, int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := snap.Evaluate(ctx, reqs[i%len(reqs)])
		if err != nil {
			b.Fatal(err)
		}
		candidates += res.Cost.Candidates
		matches += len(res.Matches)
		nodes += res.Cost.NodeAccesses
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	b.ReportMetric(float64(candidates)/float64(b.N), "candidates/op")
	b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
}

// TestEvaluateRangeAllocationBudget pins what one range request on the
// shard-sized engine allocates: the match list, the query plan and the
// request's fixed overhead — the survivor buffer and a leaf record's
// marginals are pooled scratch, the issuer's q-expanded queries are a
// fixed array on the plan, a leaf record's catalog rows are computed
// one at a time as pruning reads them, and nothing is allocated per
// candidate. Budgets are the measured values plus a small grace; a
// change that moves them re-measures and says so, as for
// TestApplyUpdatesAllocationBudget.
func TestEvaluateRangeAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a shard-sized engine")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	const (
		rounds      = 4
		bytesBudget = 27_500 // measured 25 812 with rows read on demand, as with a pooled row buffer (46 100 with the table reads and a survivor slice and probability slice per request)
		allocBudget = 18     // measured 16.3 both ways (27.6)
	)
	eng, w := newApplyEngine(t)
	reqs := rangeBenchRequests(t, w)
	snap := eng.Snapshot()
	defer snap.Close()
	ctx := context.Background()
	run := func() {
		for _, req := range reqs {
			if _, err := snap.Evaluate(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the scratch pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		run()
	}
	runtime.ReadMemStats(&after)
	calls := float64(rounds * len(reqs))
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / calls
	allocsPer := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("per range Evaluate: %.0f B, %.1f allocs", bytesPer, allocsPer)
	if bytesPer > bytesBudget {
		t.Errorf("Evaluate = %.0f B/request, budget %d", bytesPer, bytesBudget)
	}
	if allocsPer > allocBudget {
		t.Errorf("Evaluate = %.1f allocs/request, budget %d", allocsPer, allocBudget)
	}
}
