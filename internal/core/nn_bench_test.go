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

// The NN candidate stage of one shard, where `go test` can hold it:
// newApplyEngine's shard-sized engine asked the end-to-end benchmark's
// NN question — a 500×500 issuer centred on a point of the California
// model (clamped inside the world), k = 1, threshold 0.1.
const (
	nnBenchIssuerHalf = 250.0
	nnBenchQueries    = 64
)

// nnBenchRequests draws the issuers from the engine's own points.
func nnBenchRequests(tb testing.TB, w *applyWorld) []Request {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	reqs := make([]Request, nnBenchQueries)
	for i := range reqs {
		c := w.points[rng.Intn(len(w.points))]
		c.X = min(max(c.X, nnBenchIssuerHalf), dataset.Extent-nnBenchIssuerHalf)
		c.Y = min(max(c.Y, nnBenchIssuerHalf), dataset.Extent-nnBenchIssuerHalf)
		iss, err := uncertain.NewObject(-1, pdf.MustUniform(geom.RectCentered(c, nnBenchIssuerHalf, nnBenchIssuerHalf)), uncertain.PaperCatalogProbs())
		if err != nil {
			tb.Fatal(err)
		}
		reqs[i] = Request{Kind: KindNN, Issuer: iss, K: 1, Threshold: 0.1}
	}
	return reqs
}

// BenchmarkNNCandidates times Snapshot.NNCandidates, the shard half of
// an NN request (run with -benchmem: B/op and allocs/op are one call's).
func BenchmarkNNCandidates(b *testing.B) {
	eng, w := newApplyEngine(b)
	reqs := nnBenchRequests(b, w)
	snap := eng.Snapshot()
	defer snap.Close()
	ctx := context.Background()
	candidates := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := snap.NNCandidates(ctx, reqs[i%len(reqs)], NNCandidateOptions{})
		if err != nil {
			b.Fatal(err)
		}
		candidates += len(set.Candidates)
	}
	b.ReportMetric(float64(candidates)/float64(b.N), "candidates/op")
}

// TestNNCandidatesAllocationBudget pins what one NNCandidates call on
// the shard-sized engine allocates: the id-ordered list it returns and
// nothing else — the probe's buffer, the sort's and the best-first
// frontier are pooled, and nothing is allocated per visited entry.
// Budgets are the measured values plus a small grace; a change that
// moves them re-measures and says so, as for
// TestApplyUpdatesAllocationBudget.
func TestNNCandidatesAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a shard-sized engine")
	}
	const (
		rounds      = 8
		bytesBudget = 34_000 // measured 31 700 for ~1 200 candidates (194 000 with the table lookups, the comparison sort and the boxed frontier)
		allocBudget = 2      // measured 1.0 (460)
	)
	eng, w := newApplyEngine(t)
	reqs := nnBenchRequests(t, w)
	snap := eng.Snapshot()
	defer snap.Close()
	ctx := context.Background()
	run := func() {
		for _, req := range reqs {
			if _, err := snap.NNCandidates(ctx, req, NNCandidateOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the sort buffer pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		run()
	}
	runtime.ReadMemStats(&after)
	calls := float64(rounds * len(reqs))
	bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / calls
	allocsPer := float64(after.Mallocs-before.Mallocs) / calls
	t.Logf("per NNCandidates call: %.0f B, %.1f allocs", bytesPer, allocsPer)
	if bytesPer > bytesBudget {
		t.Errorf("NNCandidates = %.0f B/call, budget %d", bytesPer, bytesBudget)
	}
	if allocsPer > allocBudget {
		t.Errorf("NNCandidates = %.1f allocs/call, budget %d", allocsPer, allocBudget)
	}
}
