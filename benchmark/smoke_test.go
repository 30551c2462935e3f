package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeSizing runs the benchmark's own code paths in about a second a
// workload: 2 000 objects, phases of a few hundred milliseconds, 50
// traced operations.
var smokeSizing = sizing{
	rects:        1000,
	points:       1000,
	checkQueries: 5,
	warmUp:       100 * time.Millisecond,
	traceOpsCap:  50,
}

// TestSmoke drives every workload through an in-process fleet — answer
// check, timed phases, second answer check, traced run, write replays —
// and requires every named metric to come out, finite, with no failed
// operation. It checks the plumbing, not the numbers.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			const seed = 3
			dir := t.TempDir()
			wd := genWorld(smokeSizing.rects, smokeSizing.points)

			start := time.Now()
			f, err := startInproc(filepath.Join(dir, "untraced"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.close()
			total, err := bulkLoad(f.router.URL, wd.loadBatches())
			if err != nil {
				t.Fatal(err)
			}
			setup := time.Since(start)
			m, err := checkAndMeasure(f.target(), w, wd, seed, 0.5, smokeSizing, newHostProbe(), &total)
			if err != nil {
				t.Fatal(err)
			}
			m.e2e["setup_s"] = setup.Seconds()
			if err := m.e2e.complete(endToEnd); err != nil {
				t.Errorf("end-to-end metrics: %v\n%v", err, m.e2e)
			}
			for _, d := range endToEnd {
				if m.e2e[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.e2e[d.name])
				}
			}
			if err := f.close(); err != nil {
				t.Errorf("closing the fleet: %v", err)
			}

			jsonl := filepath.Join(dir, "trace.jsonl")
			wd = genWorld(smokeSizing.rects, smokeSizing.points)
			v, tt, err := traceInproc(filepath.Join(dir, "traced"), jsonl, w, wd, seed, smokeSizing)
			if err != nil {
				t.Fatal(err)
			}
			total.add(tt)
			for name, x := range m.layer {
				v[name] = x
			}
			if err := v.complete(perLayer); err != nil {
				t.Errorf("per-layer metrics: %v\n%v", err, v)
			}
			// The sum only: at this size an operation takes half a
			// millisecond and a re-timed row can exceed its span by
			// noise alone, which checkLayerSum would (rightly) refuse.
			if frac := v["client.layer_sum_frac"]; frac < 0.9 || frac > 1.1 {
				t.Errorf("layer rows sum to %.3f of the traced mean latency", frac)
			}
			if st, err := os.Stat(jsonl); err != nil || st.Size() == 0 {
				t.Errorf("no spans written to %s: %v", jsonl, err)
			}
			if total.failed > 0 || total.attempted == 0 {
				t.Errorf("%d of %d operations failed", total.failed, total.attempted)
			}
			// Write workloads must have exercised the write-side layers.
			if w.kind == "" {
				for _, name := range []string{"core.apply_ms", "monitor.reeval_ms", "monitor.reevaluated_per_batch",
					"client.delta_p50_ms", "wal.bytes_per_update", "shard.subbatches_per_batch"} {
					if v[name] <= 0 {
						t.Errorf("%s = %v on a write workload, want > 0", name, v[name])
					}
				}
			}
			if w.paced && (v["client.write_p50_ms"] <= 0 || v["core.apply_ms"] <= 0) {
				t.Errorf("paced writer left no trace: write_p50 %v, apply %v", v["client.write_p50_ms"], v["core.apply_ms"])
			}
		})
	}
}
