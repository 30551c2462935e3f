package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one reported metric. BENCHMARK.json restates this
// table for the driver; TestManifestMatchesTable keeps the two equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a client of the fleet sees, measured on the
// untraced run against real processes. Every one is defined (and
// non-zero) on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solo_p50_ms", "ms"},
	{"ops_s", "ops/s"},
	{"sat_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"fleet_rss_mb", "MB"},
}

// perLayer are the single-layer metrics, named <module>.<what>. The
// *_ms rows down to monitor.reeval_ms are means per primary op of the
// traced run and add up to client.traced_mean_ms; 0 means the layer
// does no work on that workload.
var perLayer = []metricDef{
	{"client.traced_mean_ms", "ms"},
	{"client.self_ms", "ms"},
	{"shard.router_self_ms", "ms"},
	{"shard.hop_ms", "ms"},
	{"serve.handler_self_ms", "ms"},
	{"core.eval_ms", "ms"},
	{"core.apply_ms", "ms"},
	{"wal.append_ms", "ms"},
	{"monitor.reeval_ms", "ms"},
	{"client.layer_sum_frac", "ratio"},
	{"client.trace_overhead_frac", "ratio"},

	{"core.pin_ms", "ms"},
	{"core.filter_ms", "ms"},
	{"core.refine_ms", "ms"},
	{"core.merge_ms", "ms"},

	{"shard.fanout_width", "count"},
	{"shard.hops_per_op", "count"},
	{"shard.retries", "count"},
	{"shard.subbatches_per_batch", "count"},
	{"shard.replica_writes_per_update", "ratio"},
	{"serve.req_bytes", "B"},
	{"serve.resp_bytes", "B"},
	{"core.node_accesses", "count"},
	{"core.candidates", "count"},
	{"core.refined", "count"},
	{"core.samples_used", "count"},
	{"core.early_stopped", "count"},
	{"core.matches", "count"},
	{"core.match_per_candidate", "ratio"},
	{"wal.bytes_per_update", "B"},
	{"monitor.reevaluated_per_batch", "count"},
	{"monitor.skipped_frac", "ratio"},
	{"monitor.deltas_per_batch", "count"},

	{"shard.router_cpu_ms_per_op", "ms"},
	{"serve.shard_cpu_ms_per_op", "ms"},
	{"client.cpu_ms_per_op", "ms"},
	{"shard.router_rss_mb", "MB"},
	{"serve.shard_rss_mb", "MB"},
	{"client.solo_p99_ms", "ms"},
	{"client.sat_p99_ms", "ms"},
	{"client.write_p50_ms", "ms"},
	{"client.delta_p50_ms", "ms"},
	{"client.gen_lag_p99_ms", "ms"},
	{"client.host_ref_wall_ms", "ms"},
	{"client.host_ref_cpu_ms", "ms"},
}

// values maps metric names to measurements.
type values map[string]float64

// complete checks that v holds exactly the metrics of defs, all finite.
func (v values) complete(defs []metricDef) error {
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("metric %s is %v", d.name, x)
		}
	}
	if len(v) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d defined", len(v), len(defs))
	}
	return nil
}

// sumRows are the per-layer time rows that add up to
// client.traced_mean_ms; true marks the rows of the write path, which
// are in the sum only where the primary operation is a write (on
// mixed_rw they are per paced batch and stand beside the table).
var sumRows = map[string]bool{
	"client.self_ms": false, "shard.router_self_ms": false, "shard.hop_ms": false,
	"serve.handler_self_ms": false, "core.eval_ms": false,
	"core.apply_ms": true, "wal.append_ms": true, "monitor.reeval_ms": true,
}

// printTable writes the metrics by name with their units, and beside
// each row of the layer sum its share of the traced mean latency.
func printTable(w io.Writer, wl workload, defs []metricDef, v values) {
	total := v["client.traced_mean_ms"]
	for _, d := range defs {
		share := ""
		if writeSide, ok := sumRows[d.name]; ok && total > 0 && (!writeSide || wl.kind == "") {
			share = fmt.Sprintf("  %5.1f%% of the traced mean", 100*v[d.name]/total)
		}
		fmt.Fprintf(w, "%-16s %-32s %14.4f %s%s\n", wl.name, d.name, v[d.name], d.unit, share)
	}
}

// resultLine renders the one-line JSON object the driver reads.
func resultLine(t tally, defs []metricDef, v values) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.name] = metric{v[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // complete() has already rejected NaN and Inf
	}
	return string(b)
}
