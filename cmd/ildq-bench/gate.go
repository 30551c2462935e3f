package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// The benchmark-regression gate: compare the run just produced against
// a checked-in baseline report and fail when a guarded metric regresses
// beyond the tolerance. Guarded metrics, chosen to track the serving
// trajectory rather than machine noise:
//
//   - io-bound batch QPS, per worker count (throughput must not drop:
//     this is the disk-regime serving curve, and on multi-core runners
//     it also records worker scaling);
//   - C-IUQ refinement latency (exp-adaptive's mean per-query
//     wall-clock, per threshold — the CPU hot path);
//   - continuous-ingestion updates/sec (exp-continuous — the MVCC
//     writer path, which snapshot isolation must not tax);
//   - mixed-workload updates/sec and reader QPS (exp-mixed — the
//     read/write interference profile the out-of-lock COW build
//     flattens; both sides are gated, at 1.5× the tolerance — see
//     below);
//   - refinement allocs/op (exp-mixed's quiesced AllocsPerRun of one
//     C-IUQ evaluation — the zero-alloc refinement loop; a zero
//     baseline means any allocation at all fails);
//   - NN refinement (exp-nn): adaptive sample counts per threshold
//     (deterministic integers — the early-termination savings must not
//     erode), qualifying-set equality (adaptive must keep returning
//     the full-budget answer), adaptive latency at 1.5× tolerance, and
//     the shared-vs-quadratic speedup at the larger candidate counts
//     (halving band — it is a ratio of two single-call timings that
//     jitters tens of percent run to run, while a real regression
//     collapses it toward 1×);
//   - observability overhead (exp-obs): the no-trace evaluation's
//     allocs/op (tight, one-alloc grace — instrumentation must not
//     allocate when no trace is attached) and latency (1.5×
//     tolerance), plus the trace-attach overhead percentage with a
//     baseline-plus-5-point grace band;
//   - durable ingestion (exp-durability): WAL-logged updates/sec per
//     fsync policy (never/interval at 1.5× tolerance, always at 2× —
//     every append there pays a real fsync, whose cost is the
//     machine's, not the code's), and checkpoint/recovery wall-clock
//     at 2× tolerance with a 1 s absolute grace band (bench-profile
//     checkpoints finish in tens to hundreds of milliseconds where
//     page-cache state alone swings the timing severalfold; a real
//     regression — serializing under the write lock, an extra full
//     copy — costs seconds).
//
// Lower-is-better metrics fail above baseline×(1+tol); higher-is-better
// below baseline×(1−tol). Metrics absent from either side are skipped
// (a trimmed profile gates only what it measured).

// gateViolation is one failed comparison.
type gateViolation struct {
	metric   string
	baseline float64
	current  float64
}

func (v gateViolation) String() string {
	return fmt.Sprintf("%-52s baseline %12.3f -> current %12.3f", v.metric, v.baseline, v.current)
}

// runGate compares rep against the baseline file and returns the
// violations (nil error means the gate ran; the caller decides the
// exit code).
func runGate(rep report, baselinePath string, tol float64) ([]gateViolation, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}

	var out []gateViolation
	minOK := func(baseline float64) float64 { return baseline * (1 - tol) }
	maxOK := func(baseline float64) float64 { return baseline * (1 + tol) }

	// io-bound QPS per worker count (higher is better). Reports are
	// matched by name so a profile emitting several curves never
	// gates one experiment against another.
	for _, brep := range base.Throughput {
		if !strings.HasPrefix(brep.Name, "io-bound") {
			continue
		}
		for _, crep := range rep.Throughput {
			if crep.Name != brep.Name {
				continue
			}
			for _, bp := range brep.Points {
				for _, cp := range crep.Points {
					if cp.Workers != bp.Workers {
						continue
					}
					if cp.QPS < minOK(bp.QPS) {
						out = append(out, gateViolation{
							metric:   fmt.Sprintf("io-bound qps (workers=%d)", bp.Workers),
							baseline: bp.QPS, current: cp.QPS,
						})
					}
				}
			}
		}
	}

	// C-IUQ refinement latency per threshold (lower is better).
	for _, badpt := range base.Adaptive {
		for _, cadpt := range rep.Adaptive {
			if cadpt.Name != badpt.Name {
				continue
			}
			for _, bp := range badpt.Points {
				for _, cp := range cadpt.Points {
					if cp.Threshold != bp.Threshold {
						continue
					}
					if cp.AdaptiveMS > maxOK(bp.AdaptiveMS) {
						out = append(out, gateViolation{
							metric:   fmt.Sprintf("C-IUQ refinement latency ms (qp=%.2f)", bp.Threshold),
							baseline: bp.AdaptiveMS, current: cp.AdaptiveMS,
						})
					}
				}
			}
		}
	}

	// Continuous ingestion updates/sec (higher is better).
	for _, bc := range base.Continuous {
		for _, cc := range rep.Continuous {
			if cc.Name != bc.Name {
				continue
			}
			if cc.UpdatesPerSec < minOK(bc.UpdatesPerSec) {
				out = append(out, gateViolation{
					metric:   "continuous updates/sec",
					baseline: bc.UpdatesPerSec, current: cc.UpdatesPerSec,
				})
			}
		}
	}

	// Mixed read/write interference: writer throughput and reader QPS
	// (both higher is better), and the quiesced refinement allocs/op
	// (lower is better). The two throughput sides get 1.5× the normal
	// tolerance: even as a best-of-windows measurement, how a small
	// runner's scheduler splits one box between contending readers and
	// a writer swings ~±10% run to run, and a real regression here (a
	// lock reintroduced on either path) costs far more than 30%. Alloc
	// counts are deterministic and integral, so they keep the tight
	// tolerance; a zero baseline tolerates nothing, and small baselines
	// still get a one-alloc grace so counting jitter cannot flake the
	// gate.
	// NN refinement: sample savings and answer equality are
	// deterministic at fixed seeds, so they get the tight tolerance
	// (equality tolerates nothing); the wall-clock metrics carry
	// single-call timing noise and get widened bands.
	for _, bn := range base.NN {
		for _, cn := range rep.NN {
			if cn.Name != bn.Name {
				continue
			}
			for _, bp := range bn.Thresholds {
				for _, cp := range cn.Thresholds {
					if cp.Threshold != bp.Threshold {
						continue
					}
					if float64(cp.AdaptiveSamples) > maxOK(float64(bp.AdaptiveSamples)) {
						out = append(out, gateViolation{
							metric:   fmt.Sprintf("nn adaptive samples (qp=%.2f)", bp.Threshold),
							baseline: float64(bp.AdaptiveSamples), current: float64(cp.AdaptiveSamples),
						})
					}
					if bp.QualifyingEqual && !cp.QualifyingEqual {
						out = append(out, gateViolation{
							metric:   fmt.Sprintf("nn qualifying-set equality (qp=%.2f)", bp.Threshold),
							baseline: 1, current: 0,
						})
					}
					if cp.AdaptiveMS > bp.AdaptiveMS*(1+1.5*tol) {
						out = append(out, gateViolation{
							metric:   fmt.Sprintf("nn adaptive latency ms (qp=%.2f)", bp.Threshold),
							baseline: bp.AdaptiveMS, current: cp.AdaptiveMS,
						})
					}
				}
			}
			for _, bp := range bn.Scale {
				// Small candidate counts time in microseconds; only the
				// larger points are stable enough to gate.
				if bp.Candidates < 200 || bp.Speedup <= 0 {
					continue
				}
				for _, cp := range cn.Scale {
					if cp.Candidates != bp.Candidates || cp.Speedup <= 0 {
						continue
					}
					// The speedup is a ratio of two single-call timings:
					// either side landing a lucky or unlucky scheduling
					// window swings it tens of percent, so it only fails
					// on a halving — losing the shared kernel collapses
					// it toward 1×, far below any baseline's half.
					if cp.Speedup < bp.Speedup/2 {
						out = append(out, gateViolation{
							metric:   fmt.Sprintf("nn shared-kernel speedup (candidates=%d)", bp.Candidates),
							baseline: bp.Speedup, current: cp.Speedup,
						})
					}
				}
			}
		}
	}

	// Observability overhead (exp-obs): the no-trace side is the
	// production idle path, so its allocation count keeps the tight
	// alloc rule (one-alloc grace over the baseline, zero tolerated
	// over a zero baseline) and its latency the 1.5× noisy-timing
	// band. The trace-attach overhead is a ratio of two single-pass
	// timings, so it only fails when it exceeds the widened baseline
	// band AND the baseline plus five percentage points, with a
	// 10-point absolute floor — the ratio of two millisecond-scale
	// passes jitters several points run to run (it can even go
	// negative, which is clamped to zero as a baseline: a negative
	// overhead is noise, not headroom to gate against), and a real
	// regression (trace attach growing a copy or a lock) costs tens
	// of points, not five.
	for _, bo := range base.Obs {
		for _, co := range rep.Obs {
			if co.Name != bo.Name {
				continue
			}
			allocLimit := maxOK(bo.NoTraceAllocs)
			if bo.NoTraceAllocs > 0 && allocLimit < bo.NoTraceAllocs+1 {
				allocLimit = bo.NoTraceAllocs + 1
			}
			if co.NoTraceAllocs > allocLimit {
				out = append(out, gateViolation{
					metric:   "obs no-trace allocs/op",
					baseline: bo.NoTraceAllocs, current: co.NoTraceAllocs,
				})
			}
			if co.NoTraceMS > bo.NoTraceMS*(1+1.5*tol) {
				out = append(out, gateViolation{
					metric:   "obs no-trace latency ms",
					baseline: bo.NoTraceMS, current: co.NoTraceMS,
				})
			}
			baseOverhead := bo.OverheadPct
			if baseOverhead < 0 {
				baseOverhead = 0
			}
			overheadLimit := baseOverhead * (1 + 2*tol)
			if overheadLimit < baseOverhead+5 {
				overheadLimit = baseOverhead + 5
			}
			if overheadLimit < 10 {
				overheadLimit = 10
			}
			if co.OverheadPct > overheadLimit {
				out = append(out, gateViolation{
					metric:   "obs trace overhead pct",
					baseline: bo.OverheadPct, current: co.OverheadPct,
				})
			}
		}
	}

	// Durable ingestion (exp-durability): WAL-logged updates/sec per
	// fsync policy (higher is better). The never/interval policies pay
	// only the in-memory append and get the 1.5× band shared by the
	// other contended-throughput metrics; "always" serializes on the
	// device's fsync latency and gets 2×. Checkpoint and recovery
	// wall-clock (lower is better) gate at 2× tolerance plus a 1 s
	// absolute grace band: at bench scale both finish in tens to
	// hundreds of milliseconds, where page-cache state alone swings
	// the measurement severalfold run to run; a real regression here
	// costs seconds, and the band still fails on that.
	for _, bd := range base.Durability {
		for _, cd := range rep.Durability {
			if cd.Name != bd.Name {
				continue
			}
			for _, bp := range bd.Policies {
				for _, cp := range cd.Policies {
					if cp.Policy != bp.Policy {
						continue
					}
					band := 1.5 * tol
					if bp.Policy == "always" {
						band = 2 * tol
					}
					if cp.UpdatesPerSec < bp.UpdatesPerSec*(1-band) {
						out = append(out, gateViolation{
							metric:   fmt.Sprintf("durable updates/sec (fsync=%s)", bp.Policy),
							baseline: bp.UpdatesPerSec, current: cp.UpdatesPerSec,
						})
					}
				}
			}
			for _, m := range []struct {
				name          string
				base, current float64
			}{
				{"checkpoint ms", bd.CheckpointMS, cd.CheckpointMS},
				{"recovery ms", bd.RecoveryMS, cd.RecoveryMS},
			} {
				limit := m.base * (1 + 2*tol)
				if limit < m.base+1000 {
					limit = m.base + 1000
				}
				if m.current > limit {
					out = append(out, gateViolation{
						metric:   "durability " + m.name,
						baseline: m.base, current: m.current,
					})
				}
			}
		}
	}

	mixedMinOK := func(baseline float64) float64 { return baseline * (1 - 1.5*tol) }
	for _, bm := range base.Mixed {
		for _, cm := range rep.Mixed {
			if cm.Name != bm.Name {
				continue
			}
			if cm.UpdatesPerSec < mixedMinOK(bm.UpdatesPerSec) {
				out = append(out, gateViolation{
					metric:   "mixed updates/sec",
					baseline: bm.UpdatesPerSec, current: cm.UpdatesPerSec,
				})
			}
			if cm.QPS < mixedMinOK(bm.QPS) {
				out = append(out, gateViolation{
					metric:   "mixed reader qps",
					baseline: bm.QPS, current: cm.QPS,
				})
			}
			allocLimit := maxOK(bm.RefineAllocsPerOp)
			if bm.RefineAllocsPerOp > 0 && allocLimit < bm.RefineAllocsPerOp+1 {
				allocLimit = bm.RefineAllocsPerOp + 1
			}
			if cm.RefineAllocsPerOp > allocLimit {
				out = append(out, gateViolation{
					metric:   "refinement allocs/op",
					baseline: bm.RefineAllocsPerOp, current: cm.RefineAllocsPerOp,
				})
			}
		}
	}
	return out, nil
}
