package obs

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// A gauge is read from its function at every scrape.
	r := NewRegistry()
	level := 1.5
	r.GaugeFunc("test_level", "A level.", func() float64 { return level })
	for _, want := range []string{"test_level 1.5\n", "test_level -0.5\n"} {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, b.String())
		}
		level -= 2
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatalf("empty histogram quantile should be NaN")
	}
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 106.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	// Buckets: le=1:1, le=2:2, le=4:1, le=8:0, +Inf:1.
	counts := h.snapshotCounts(nil)
	want := []int64{1, 2, 1, 0, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, counts[i], want[i])
		}
	}
	// Median rank 2.5 lands in the (1,2] bucket (cumulative 1 -> 3).
	q := h.Quantile(0.5)
	if q < 1 || q > 2 {
		t.Fatalf("q50 = %g, want within (1,2]", q)
	}
	// Overflow observations report the top finite bound.
	if got := h.Quantile(1); got != 8 {
		t.Fatalf("q100 = %g, want 8", got)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}, {math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestBucketHelpers(t *testing.T) {
	lat := LatencyBuckets()
	if lat[0] != 1e-4 || len(lat) != 18 {
		t.Fatalf("unexpected latency layout: %v", lat)
	}
	cb := CountBuckets(100)
	if cb[0] != 1 || cb[len(cb)-1] < 100 {
		t.Fatalf("CountBuckets(100) = %v", cb)
	}
}

func TestRegistryExpositionLintsClean(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests served.", Label{"kind", "nn"})
	c.Add(3)
	r.Counter("test_requests_total", "Requests served.", Label{"kind", "points"})
	r.GaugeFunc("test_temperature", "Current temperature.", func() float64 { return -1.25 })
	h := r.Histogram("test_latency_seconds", "Request latency.", LatencyBuckets(), Label{"kind", "nn"})
	h.Observe(0.002)
	h.Observe(0.4)
	r.GaugeFunc("test_derived", "A derived gauge.", func() float64 { return 7 })
	r.CounterSet("test_per_query", "Per-query counters.", func(emit func(v float64, labels ...Label)) {
		emit(1, Label{"query", "a"})
		emit(2, Label{"query", "b"})
		emit(99, Label{"query", "a"}) // duplicate within one scrape: dropped
	})

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	if errs := Lint(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("exposition does not lint:\n%v\n---\n%s", errs, out)
	}
	for _, want := range []string{
		`test_requests_total{kind="nn"} 3`,
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{kind="nn",le="+Inf"} 2`,
		"# TYPE test_latency_seconds_summary summary",
		`test_latency_seconds_summary{kind="nn",quantile="0.5"}`,
		`test_per_query{query="a"} 1`,
		"test_derived 7",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `test_per_query{query="a"} 99`) {
		t.Fatalf("duplicate collector series not dropped:\n%s", out)
	}
}

func TestRegistryRegistrationPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("ok_total", "help")
	expectPanic("duplicate series", func() { r.Counter("ok_total", "help") })
	expectPanic("type conflict", func() { r.GaugeFunc("ok_total", "help", func() float64 { return 0 }) })
	expectPanic("help conflict", func() { r.Counter("ok_total", "other help", Label{"a", "b"}) })
	expectPanic("invalid name", func() { r.Counter("0bad", "help") })
	expectPanic("invalid label", func() { r.Counter("ok2_total", "help", Label{"0bad", "v"}) })
	r.Histogram("hist_seconds", "help", []float64{1})
	expectPanic("derived-name collision", func() { r.Counter("hist_seconds_bucket", "help") })
	expectPanic("le label on histogram", func() {
		r.Histogram("hist2_seconds", "help", []float64{1}, Label{"le", "x"})
	})
}

func TestLintCatchesMalformedExpositions(t *testing.T) {
	cases := map[string]string{
		"missing help": "# TYPE a_total counter\na_total 1\n",
		"missing type": "# HELP a_total h\na_total 1\n",
		"bad name":     "# HELP 0bad h\n# TYPE 0bad counter\n0bad 1\n",
		"dup series":   "# HELP a_total h\n# TYPE a_total counter\na_total 1\na_total 2\n",
		"bad value":    "# HELP a_total h\n# TYPE a_total counter\na_total zebra\n",
		"bucket no le": "# HELP h_s h\n# TYPE h_s histogram\nh_s_bucket 1\nh_s_sum 1\nh_s_count 1\n",
		"interleaved": "# HELP a_total h\n# TYPE a_total counter\n# HELP b_total h\n# TYPE b_total counter\n" +
			"a_total{k=\"1\"} 1\nb_total 1\na_total{k=\"2\"} 1\n",
		"dup type": "# HELP a_total h\n# TYPE a_total counter\n# TYPE a_total counter\na_total 1\n",
	}
	for name, in := range cases {
		if errs := Lint([]byte(in)); len(errs) == 0 {
			t.Errorf("%s: lint accepted malformed input:\n%s", name, in)
		}
	}
	clean := "# HELP a_total h\n# TYPE a_total counter\na_total{k=\"v\\\"q\"} 1\na_total 2 1700000000\n"
	if errs := Lint([]byte(clean)); len(errs) != 0 {
		t.Errorf("lint rejected valid input: %v", errs)
	}
}

func TestTraceRecordsStages(t *testing.T) {
	tr := NewTrace("req-1")
	sp := tr.StartSpan("filter")
	sp.AddNodes(12)
	sp.SetItems(5)
	time.Sleep(time.Millisecond)
	sp.End()
	sp2 := tr.StartSpan("refine")
	sp2.AddSamples(2048)
	sp2.SetNote("converged")
	sp2.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "filter" || spans[0].NodeAccesses != 12 || spans[0].Items != 5 {
		t.Fatalf("filter span = %+v", spans[0])
	}
	if spans[0].Duration <= 0 {
		t.Fatalf("filter span has no duration: %+v", spans[0])
	}
	if spans[1].Name != "refine" || spans[1].Samples != 2048 || spans[1].Note != "converged" {
		t.Fatalf("refine span = %+v", spans[1])
	}
	if spans[1].Start < spans[0].Start {
		t.Fatalf("span starts out of order: %+v", spans)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("TraceFrom on bare context should be nil")
	}
	tr := NewTrace("x")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
}

// The untraced path must be allocation-free: a nil trace's span
// lifecycle and the context miss cost no heap.
func TestNilTraceIsFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		tr := TraceFrom(ctx)
		sp := tr.StartSpan("filter")
		sp.AddNodes(1)
		sp.AddSamples(1)
		sp.SetItems(1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("untraced span path allocates %g per op, want 0", allocs)
	}
	var nilTrace *Trace
	if nilTrace.Spans() != nil {
		t.Fatal("nil trace accessors should return zero values")
	}
}

// TestHeapLiveGauge: go_gc_heap_live_bytes reads the runtime's live-heap
// figure — positive once a collection has run — in a conformant
// exposition.
func TestHeapLiveGauge(t *testing.T) {
	runtime.GC()
	r := NewRegistry()
	r.HeapLiveGauge()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if errs := Lint(buf.Bytes()); len(errs) != 0 {
		t.Fatalf("exposition does not lint: %v\n%s", errs, buf.String())
	}
	var v float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "go_gc_heap_live_bytes "); ok {
			if _, err := fmt.Sscan(rest, &v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if v <= 0 {
		t.Fatalf("live heap %v after a collection:\n%s", v, buf.String())
	}
}
