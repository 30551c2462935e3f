package main

import "testing"

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {20, 30}}, 20},             // disjoint
		{[]interval{{20, 30}, {0, 10}}, 20},             // unsorted
		{[]interval{{0, 10}, {5, 15}}, 15},              // overlapping
		{[]interval{{0, 100}, {10, 20}, {30, 40}}, 100}, // nested
		{[]interval{{0, 10}, {10, 20}}, 20},             // touching
		{[]interval{{5, 5}, {9, 3}}, 0},                 // empty and inverted
	} {
		if got := unionLen(c.ivs); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	// Two overlapping children and one that outlives the parent: the
	// covered part is [110,150) ∪ [180,200) = 60, so 40 is the parent's own.
	children := []interval{{110, 140}, {130, 150}, {180, 250}}
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

// The rows of one operation telescope: whatever the spans, the layers'
// self times add up to the client span.
func TestOpRowsSumToClient(t *testing.T) {
	spans := []span{
		{Name: spanClient, Start: 0, End: 2_000_000, Shard: -1},
		{Name: spanRouter, Start: 200_000, End: 1_800_000, Shard: -1},
		{Name: spanHop, Start: 300_000, End: 1_500_000, Shard: 0, Path: "/v1/evaluate"},
		{Name: spanHop, Start: 310_000, End: 1_200_000, Shard: 1, Path: "/v1/evaluate"},
		{Name: spanServe, Start: 400_000, End: 1_400_000, Shard: 0, EvalMS: 0.6, ReqBytes: 200, RespBytes: 9000},
		{Name: spanServe, Start: 420_000, End: 1_100_000, Shard: 1, EvalMS: 0.3, ReqBytes: 200, RespBytes: 5000},
		{Name: "core.filter", Start: 500_000, End: 900_000, Shard: 0},
		{Name: "core.filter", Start: 500_000, End: 700_000, Shard: 1},
	}
	r := opRows(tracedOp{op: 1, traced: true}, spans, nil)
	if !near(sumOf(r), 2) {
		t.Errorf("rows sum to %v, the client span is 2 ms", sumOf(r))
	}
	want := values{
		"client.traced_mean_ms": 2, "client.self_ms": 0.4, "shard.router_self_ms": 0.4, "shard.hop_ms": 0.2,
		"serve.handler_self_ms": 0.4, "core.eval_ms": 0.6, "core.filter_ms": 0.4,
		"shard.fanout_width": 2, "shard.hops_per_op": 2, "serve.req_bytes": 400, "serve.resp_bytes": 14000,
	}
	for name, x := range want {
		if !near(r[name], x) {
			t.Errorf("%s = %v, want %v", name, r[name], x)
		}
	}
	if len(r) != len(want) {
		t.Errorf("rows = %v\nwant   %v", r, want)
	}
}

func TestCheckLayerSum(t *testing.T) {
	ok := values{"client.traced_mean_ms": 10, "client.layer_sum_frac": 1, "client.self_ms": 2, "wal.append_ms": -0.1,
		"serve.handler_self_ms": 3}
	if err := checkLayerSum(ok); err != nil {
		t.Errorf("rows within the replay noise rejected: %v", err)
	}
	ok["serve.handler_self_ms"] = -1 // a replay slower than the span it is subtracted from
	if err := checkLayerSum(ok); err == nil {
		t.Error("a negative remainder row passed")
	}
	ok["serve.handler_self_ms"], ok["client.layer_sum_frac"] = 3, 0.8
	if err := checkLayerSum(ok); err == nil {
		t.Error("rows summing to 80% of the traced mean passed")
	}
}
