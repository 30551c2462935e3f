package core

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/obs"
	"repro/internal/pdf"
	"repro/internal/storage"
	"repro/internal/uncertain"
)

func metricsTestEngine(t *testing.T, opts EngineOptions) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	points := make([]uncertain.PointObject, 800)
	for i := range points {
		points[i] = uncertain.PointObject{
			ID:  uncertain.ID(i),
			Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
		}
	}
	objects := make([]*uncertain.Object, 400)
	for i := range objects {
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		o, err := uncertain.NewObject(uncertain.ID(i),
			pdf.MustUniform(geom.RectCentered(c, 5+rng.Float64()*20, 5+rng.Float64()*20)),
			uncertain.PaperCatalogProbs())
		if err != nil {
			t.Fatal(err)
		}
		objects[i] = o
	}
	eng, err := NewEngine(points, objects, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// An obs.Trace attached to a one-shot NN request must yield the full
// stage breakdown: pin, filter (with node accesses), refine (with
// samples and an early-stop note), merge — the acceptance criterion
// for per-request cost decomposition.
func TestTraceNNStageBreakdown(t *testing.T) {
	eng := metricsTestEngine(t, EngineOptions{})
	iss := testIssuer(t, geom.Pt(500, 500), 60)

	tr := obs.NewTrace("req-42")
	ctx := obs.WithTrace(context.Background(), tr)
	req := RequestNN(iss, 5)
	req.Seed = 9
	resp, err := eng.Evaluate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	byName := map[string]obs.Span{}
	var order []string
	for _, sp := range spans {
		byName[sp.Name] = sp
		order = append(order, sp.Name)
	}
	for _, want := range []string{"pin", "filter", "refine", "merge"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("trace missing %q span; got %v", want, order)
		}
	}
	if f := byName["filter"]; f.NodeAccesses <= 0 || int64(f.NodeAccesses) != resp.Cost.NodeAccesses {
		t.Fatalf("filter span nodes = %d, want cost's %d", f.NodeAccesses, resp.Cost.NodeAccesses)
	}
	if r := byName["refine"]; r.Samples != resp.Cost.SamplesUsed || r.Note == "" {
		t.Fatalf("refine span = %+v, want samples %d and a note", r, resp.Cost.SamplesUsed)
	}
	if m := byName["merge"]; m.Items != len(resp.Matches) {
		t.Fatalf("merge span items = %d, want %d matches", m.Items, len(resp.Matches))
	}
	// Spans are recorded in stage order with monotone starts.
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("span starts not monotone: %v", order)
		}
	}

	// A traced evaluation must be bit-identical to an untraced one.
	plain, err := eng.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Matches) != len(resp.Matches) {
		t.Fatalf("traced evaluation changed the answer: %d vs %d matches", len(resp.Matches), len(plain.Matches))
	}
	for i := range plain.Matches {
		if plain.Matches[i] != resp.Matches[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, plain.Matches[i], resp.Matches[i])
		}
	}
}

// The uncertain range path records filter/refine/merge with the prune
// decomposition in the filter note.
func TestTraceUncertainStages(t *testing.T) {
	eng := metricsTestEngine(t, EngineOptions{})
	iss := testIssuer(t, geom.Pt(400, 400), 50)

	tr := obs.NewTrace("req-u")
	ctx := obs.WithTrace(context.Background(), tr)
	req := RequestUncertain(iss, 120, 120, 0.3)
	req.Seed = 4
	if _, err := eng.Evaluate(ctx, req); err != nil {
		t.Fatal(err)
	}
	var filter *obs.Span
	for i := range tr.Spans() {
		if tr.Spans()[i].Name == "filter" {
			filter = &tr.Spans()[i]
		}
	}
	if filter == nil {
		t.Fatalf("no filter span in %v", tr.Spans())
	}
	if !strings.Contains(filter.Note, "candidates=") {
		t.Fatalf("filter note %q missing candidate decomposition", filter.Note)
	}
}

// Engine metrics register onto a registry, render a lint-clean
// exposition, and reflect evaluations.
func TestEngineRegisterMetrics(t *testing.T) {
	eng := metricsTestEngine(t, EngineOptions{})
	iss := testIssuer(t, geom.Pt(500, 500), 60)
	req := RequestNN(iss, 3)
	req.Seed = 2
	if _, err := eng.Evaluate(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	r := obs.NewRegistry()
	eng.RegisterMetrics(r)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if errs := obs.Lint(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("engine exposition does not lint: %v", errs)
	}
	out := buf.String()
	for _, want := range []string{
		`ildq_eval_total{kind="nn"} 1`,
		`ildq_eval_latency_seconds_count{kind="nn"} 1`,
		`ildq_pool_logical_reads_total{store="point"} 0`,
		"ildq_engine_points 800",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// The write path's instruments: every ApplyUpdates batch is one
// observation of ildq_apply_seconds, whatever it applied, and
// ildq_apply_updates_total counts the updates that took effect.
func TestApplyMetrics(t *testing.T) {
	eng := metricsTestEngine(t, EngineOptions{})
	eng.ApplyUpdates([]Update{
		{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: 1, Loc: geom.Pt(10, 10)}},
		{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: 9001, Loc: geom.Pt(20, 20)}},
		{Op: OpDeletePoint, ID: 9002}, // absent: Missing, not applied
		{Op: OpUpsertObject},          // nil object: an error, not applied
	})
	eng.ApplyUpdates([]Update{{Op: OpDeleteObject, ID: 12345}}) // applies nothing, still a batch

	r := obs.NewRegistry()
	eng.RegisterMetrics(r)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if errs := obs.Lint(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("engine exposition does not lint: %v", errs)
	}
	for _, want := range []string{"ildq_apply_seconds_count 2", "ildq_apply_updates_total 2"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// StorageStats surfaces the buffer-pool counters for paged stores and
// zero-valued placeholders for in-memory ones.
func TestStorageStats(t *testing.T) {
	mem := metricsTestEngine(t, EngineOptions{})
	ss := mem.StorageStats()
	if ss.Point.Paged || ss.Uncertain.Paged {
		t.Fatalf("in-memory engine reports paged pools: %+v", ss)
	}

	pointPool := storage.NewBufferPool(storage.NewMemStore(), 16)
	uncPool := storage.NewBufferPool(storage.NewMemStore(), 16)
	paged := metricsTestEngine(t, EngineOptions{
		PointNodeStore:     rtree.NewPagedNodeStore(pointPool, 0),
		UncertainNodeStore: rtree.NewPagedNodeStore(uncPool, 4*len(uncertain.PaperCatalogProbs())),
	})
	iss := testIssuer(t, geom.Pt(500, 500), 60)
	req := RequestUncertain(iss, 150, 150, 0.4)
	req.Seed = 3
	if _, err := paged.Evaluate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	ss = paged.StorageStats()
	if !ss.Point.Paged || !ss.Uncertain.Paged {
		t.Fatalf("paged engine reports unpaged pools: %+v", ss)
	}
	if ss.Uncertain.Stats.LogicalReads <= 0 {
		t.Fatalf("paged evaluation recorded no logical reads: %+v", ss.Uncertain)
	}
	if st := ss.Uncertain.Stats; st.PhysicalReads < 0 || st.PhysicalReads > st.LogicalReads {
		t.Fatalf("physical reads %d outside [0, logical reads %d]", st.PhysicalReads, st.LogicalReads)
	}
}

// The allocation budget of one untraced C-IUQ evaluation, and PR 8's
// contract that instrumentation is free when idle: attaching a trace
// may cost a handful of allocations (the trace, its span slice, note
// formatting), not attaching one must cost none. The untraced count is
// the one measured when this test was written plus a one-allocation
// grace; raise it only with a reason.
func TestEvaluateAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	const (
		untracedBudget = 25 + 1
		traceAttachMax = 8
	)
	eng := testWorld(t, 0, 2000, 21)
	req := RequestUncertain(testIssuer(t, geom.Pt(500, 500), 40), 80, 80, 0.5)
	req.Seed = 9
	ctx := context.Background()
	var evalErr error
	eval := func(ctx context.Context) {
		if _, err := eng.Evaluate(ctx, req); err != nil {
			evalErr = err
		}
	}
	untraced := testing.AllocsPerRun(20, func() { eval(ctx) })
	traced := testing.AllocsPerRun(20, func() { eval(obs.WithTrace(ctx, obs.NewTrace("alloc"))) })
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	t.Logf("allocs/op: untraced %.0f, traced %.0f", untraced, traced)
	if untraced > untracedBudget {
		t.Errorf("untraced Evaluate = %.0f allocs/op, budget %d", untraced, untracedBudget)
	}
	if d := traced - untraced; d > traceAttachMax {
		t.Errorf("attaching a trace costs %.0f allocs/op, want at most %d", d, traceAttachMax)
	}
}
