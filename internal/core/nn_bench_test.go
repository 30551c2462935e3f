package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
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

// TestRefineNNMatchesExhaustiveKernel holds the NN refinement stage on
// the end-to-end benchmark's question (nnBenchRequests on the shard's
// points) to the exhaustive kernel, over many seeds and thresholds.
// With a threshold, nn.Refine resolves only the samples that can lift a
// candidate to it, so a rejected candidate's probability is not its
// exhaustive one; everything an answer carries must be. The reference
// is the same request at threshold 0 (every sample resolved), filtered
// at qp and cut to K afterwards. The thresholds include tallies that
// hit qp exactly (need/1000 = qp for 0.1, 0.02 and 0.005) and qp's
// float neighbours; a 5 000-sample stream with AdaptiveOff runs the
// restriction over several chunks.
func TestRefineNNMatchesExhaustiveKernel(t *testing.T) {
	w := newApplyWorld()
	pts := make([]uncertain.PointObject, len(w.points))
	for i, p := range w.points {
		pts[i] = uncertain.PointObject{ID: uncertain.ID(i), Loc: p}
	}
	eng, err := NewEngine(pts, nil, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	defer snap.Close()
	ctx := context.Background()
	reqs := nnBenchRequests(t, w)
	seeds := 6
	if testing.Short() {
		reqs, seeds = reqs[:16], 2
	}
	qps := []float64{0.1, 0.02, 0.005, math.Nextafter(0.1, 0), math.Nextafter(0.1, 1), 0.5}
	var samples, resolved int64
	for ri, base := range reqs {
		set, err := snap.NNCandidates(ctx, base, NNCandidateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for seed := 1; seed <= seeds; seed++ {
			for vi, variant := range []struct {
				k       int
				samples int
				off     bool
			}{{1, 0, false}, {len(set.Candidates), 0, false}, {len(set.Candidates), 5000, true}} {
				if variant.samples > 0 && seed > 2 {
					continue
				}
				ref := base
				ref.Seed = int64(seed)
				ref.NNSamples = variant.samples
				if variant.off {
					ref.Options.Object.Adaptive = AdaptiveOff
				}
				ref.Threshold, ref.K = 0, len(set.Candidates)
				all, err := EvaluateNNCandidates(ctx, ref, set.Candidates, set.Tau)
				if err != nil {
					t.Fatal(err)
				}
				for _, qp := range qps {
					req := ref
					req.Threshold, req.K = qp, variant.k
					got, err := EvaluateNNCandidates(ctx, req, set.Candidates, set.Tau)
					if err != nil {
						t.Fatal(err)
					}
					var want []Match
					for _, m := range all.Matches {
						if m.P >= qp {
							want = append(want, m)
						}
					}
					below := len(set.Candidates) - len(want)
					want = want[:min(len(want), variant.k)]
					name := fmt.Sprintf("request %d seed %d variant %d qp %v", ri, seed, vi, qp)
					if len(got.Matches) != len(want) {
						t.Fatalf("%s: %d matches, exhaustive %d", name, len(got.Matches), len(want))
					}
					for i, m := range want {
						if g := got.Matches[i]; g.ID != m.ID || math.Float64bits(g.P) != math.Float64bits(m.P) {
							t.Fatalf("%s: match %d = %+v, exhaustive %+v", name, i, g, m)
						}
					}
					gc, wc := got.Cost, all.Cost
					if gc.SamplesUsed != wc.SamplesUsed || gc.EarlyStopped != wc.EarlyStopped ||
						gc.Refined != wc.Refined || gc.Candidates != wc.Candidates || gc.BelowThreshold != below ||
						math.Float64bits(got.Tau) != math.Float64bits(all.Tau) {
						t.Fatalf("%s: cost %+v tau %v, exhaustive %+v tau %v, below %d", name, gc, got.Tau, wc, all.Tau, below)
					}
				}
			}
		}
		// The restriction is at work: count what one traced request
		// resolved of what it drew, from its refine span's note.
		req := base
		req.Seed = 1
		tr := obs.NewTrace("nn-refine")
		if _, err := EvaluateNNCandidates(obs.WithTrace(ctx, tr), req, set.Candidates, set.Tau); err != nil {
			t.Fatal(err)
		}
		var r, n int64
		for _, sp := range tr.Spans() {
			if sp.Name == "refine" {
				if _, err := fmt.Sscanf(sp.Note[strings.Index(sp.Note, "resolved="):], "resolved=%d of %d", &r, &n); err != nil {
					t.Fatalf("refine note %q: %v", sp.Note, err)
				}
			}
		}
		samples, resolved = samples+n, resolved+r
	}
	// Measured: 36 % (a dense issuer region skips nearly every cell, a
	// sparse one, where each cell lists many candidates, few).
	t.Logf("qp=0.1, k=1: resolved %d of %d samples", resolved, samples)
	if samples == 0 || resolved*2 > samples {
		t.Fatalf("resolved %d of %d samples at qp=0.1: the restriction should skip most", resolved, samples)
	}
}
