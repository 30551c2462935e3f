package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterVecSeriesPerLabelValue(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("router_requests_total", "per-shard request count", "shard")
	v.With("0").Add(3)
	v.With("1").Add(5)
	if v.With("0") != v.With("0") {
		t.Fatalf("With must return the same instrument for the same values")
	}
	v.With("0").Inc()

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`router_requests_total{shard="0"} 4`,
		`router_requests_total{shard="1"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE header for the whole family.
	if got := strings.Count(out, "# TYPE router_requests_total counter"); got != 1 {
		t.Errorf("TYPE header count = %d, want 1", got)
	}
}

// A gauge family with several labels is a GaugeSet, the form every
// production gauge family takes.
func TestGaugeVecMultiLabel(t *testing.T) {
	r := NewRegistry()
	r.GaugeSet("router_shard_up", "shard health", func(emit func(v float64, labels ...Label)) {
		emit(1, Label{"shard", "2"}, Label{"addr", "localhost:9002"})
	})

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `router_shard_up{shard="2",addr="localhost:9002"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q:\n%s", want, b.String())
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("router_merge_seconds", "merge latency", []float64{0.1, 1}, "kind")
	v.With("nn").Observe(0.05)
	v.With("nn").Observe(2)
	v.With("uncertain").Observe(0.5)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`router_merge_seconds_bucket{kind="nn",le="0.1"} 1`,
		`router_merge_seconds_bucket{kind="nn",le="+Inf"} 2`,
		`router_merge_seconds_count{kind="uncertain"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecConcurrentWith(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("vec_conc_total", "x", "w")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				v.With("a").Inc()
				v.With("b").Inc()
			}
		}()
	}
	wg.Wait()
	if got := v.With("a").Value(); got != 800 {
		t.Fatalf("a = %d, want 800", got)
	}
	if got := v.With("b").Value(); got != 800 {
		t.Fatalf("b = %d, want 800", got)
	}
}

func TestVecPanicsOnArityMismatch(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("vec_arity_total", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong label value count")
		}
	}()
	v.With("only-one")
}
