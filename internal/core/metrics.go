package core

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/index/rtree"
	"repro/internal/obs"
	"repro/internal/storage"
)

// kindCount sizes the per-kind metric arrays (KindUncertain,
// KindPoints, KindNN).
const kindCount = 3

// engineMetrics is the engine's always-on telemetry: per-kind
// evaluation latency histograms and cost counters, plus the MVCC
// writer-side counters. One instance is created per engine and shared
// by every engineState (copied by pointer through stateTxn.finish), so
// evaluation paths — which run on states, not on the Engine — can
// record without a back-pointer. Everything here is a plain atomic or
// a preallocated histogram: recording costs a handful of uncontended
// atomic adds per evaluation, nothing on the per-candidate path.
type engineMetrics struct {
	// latency is the per-kind Evaluate wall-clock distribution
	// (successful evaluations only; errors have no meaningful
	// duration).
	latency [kindCount]*obs.Histogram
	// Per-kind totals, indexed by Kind.
	evals        [kindCount]atomic.Int64
	evalErrors   [kindCount]atomic.Int64
	samples      [kindCount]atomic.Int64
	earlyStopped [kindCount]atomic.Int64
	nodeAccesses [kindCount]atomic.Int64
	budgetDenied [kindCount]atomic.Int64

	// MVCC writer-side counters: published states, index nodes retired
	// into the graveyard, and nodes actually freed back to the stores.
	publishes    atomic.Int64
	retiredNodes atomic.Int64
	freedNodes   atomic.Int64

	// The write path: wall-clock of one ApplyUpdates batch from the call
	// to the publish (waiting for the writer lock included), and the
	// updates those batches applied.
	applyLatency   *obs.Histogram
	appliedUpdates atomic.Int64

	// Durability counters; all zero on ephemeral engines. walAppends/
	// walBytes/walFsyncs are fed by the WAL writer's hooks, the
	// checkpoint pair by Engine.checkpoint.
	walAppends    atomic.Int64
	walBytes      atomic.Int64
	walFsyncs     atomic.Int64
	fsyncLatency  *obs.Histogram
	checkpoints   atomic.Int64
	checkpointDur *obs.Histogram
}

func newEngineMetrics() *engineMetrics {
	m := &engineMetrics{}
	for i := range m.latency {
		m.latency[i] = obs.NewHistogram(obs.LatencyBuckets())
	}
	m.applyLatency = obs.NewHistogram(obs.LatencyBuckets())
	m.fsyncLatency = obs.NewHistogram(obs.LatencyBuckets())
	m.checkpointDur = obs.NewHistogram(obs.LatencyBuckets())
	return m
}

// observe records one finished evaluateRequest dispatch. Validation
// failures never reach it (a malformed request is not an evaluation);
// evaluation errors count in evalErrors (and budgetDenied for sample
// budget refusals) without a latency observation.
func (m *engineMetrics) observe(k Kind, resp Response, err error) {
	i := int(k)
	if i < 0 || i >= kindCount {
		return
	}
	m.evals[i].Add(1)
	if err != nil {
		m.evalErrors[i].Add(1)
		if errors.Is(err, ErrSampleBudget) {
			m.budgetDenied[i].Add(1)
		}
		return
	}
	c := resp.Cost
	m.samples[i].Add(c.SamplesUsed)
	m.earlyStopped[i].Add(int64(c.EarlyStopped))
	m.nodeAccesses[i].Add(c.NodeAccesses)
	m.latency[i].ObserveDuration(c.Duration)
}

// PoolStats is one index side's buffer-pool view. Paged is false for
// in-memory node stores, where every counter is zero — the metric
// families still exist so dashboards do not change shape with the
// storage backend.
type PoolStats struct {
	// Paged reports whether this index runs over a paged store with a
	// buffer pool at all.
	Paged bool
	// Stats is the pool's cumulative traffic (logical/physical reads,
	// page writes, evictions). Hits are LogicalReads − PhysicalReads.
	Stats storage.Stats
	// Resident is the number of pages currently cached.
	Resident int
}

// HitRate returns the fraction of logical reads served from the pool.
func (ps PoolStats) HitRate() float64 { return ps.Stats.HitRate() }

// StorageStats reports the buffer-pool counters behind the current
// state's two indexes, so serving layers and benches can report hit
// ratios directly instead of inferring them from QPS.
type StorageStats struct {
	Point     PoolStats
	Uncertain PoolStats
}

// StorageStats returns the current buffer-pool counters. The pools
// belong to the node stores, which are shared by every state of one
// engine, so the numbers are cumulative across versions.
func (e *Engine) StorageStats() StorageStats {
	st := e.state.Load()
	return StorageStats{
		Point:     poolStatsOf(st.pointIdx.Store()),
		Uncertain: poolStatsOf(st.uncIdx.Tree().Store()),
	}
}

func poolStatsOf(ns rtree.NodeStore) PoolStats {
	paged, ok := ns.(*rtree.PagedNodeStore)
	if !ok {
		return PoolStats{}
	}
	pool := paged.Pool()
	return PoolStats{Paged: true, Stats: pool.Stats(), Resident: pool.Resident()}
}

// evalKinds is the fixed kind order metric labels are emitted in.
var evalKinds = [kindCount]Kind{KindUncertain, KindPoints, KindNN}

// RegisterMetrics registers the engine's telemetry on r: per-kind
// evaluation histograms and cost counters, MVCC snapshot gauges, COW
// writer counters, and the buffer-pool families for both index sides.
// Call once per registry; the instruments themselves are always live,
// registered or not.
func (e *Engine) RegisterMetrics(r *obs.Registry) {
	m := e.met
	counter := func(v *atomic.Int64) func() float64 {
		return func() float64 { return float64(v.Load()) }
	}
	for i, kind := range evalKinds {
		lbl := obs.Label{Name: "kind", Value: kind.String()}
		r.RegisterHistogram("ildq_eval_latency_seconds",
			"Evaluate wall-clock per request kind (successful evaluations).",
			m.latency[i], lbl)
		r.CounterFunc("ildq_eval_total",
			"Evaluations dispatched per request kind (including failed ones).",
			counter(&m.evals[i]), lbl)
		r.CounterFunc("ildq_eval_errors_total",
			"Evaluations that returned an error (timeouts, budget refusals, storage faults).",
			counter(&m.evalErrors[i]), lbl)
		r.CounterFunc("ildq_eval_samples_total",
			"Monte-Carlo samples drawn by refinement, per request kind.",
			counter(&m.samples[i]), lbl)
		r.CounterFunc("ildq_eval_early_stopped_total",
			"Candidates retired early by an adaptive termination bound.",
			counter(&m.earlyStopped[i]), lbl)
		r.CounterFunc("ildq_eval_node_accesses_total",
			"Index nodes read during the filter step, per request kind.",
			counter(&m.nodeAccesses[i]), lbl)
		r.CounterFunc("ildq_eval_budget_denied_total",
			"Evaluations refused because they would exceed EvalOptions.MaxSamples.",
			counter(&m.budgetDenied[i]), lbl)
	}

	r.CounterFunc("ildq_cow_publishes_total",
		"Engine states published by writers (mutations and update batches).",
		counter(&m.publishes))
	r.CounterFunc("ildq_cow_retired_nodes_total",
		"Index nodes superseded by copy-on-write builds, awaiting reclamation.",
		counter(&m.retiredNodes))
	r.CounterFunc("ildq_cow_freed_nodes_total",
		"Retired index nodes returned to their stores after the last pin dropped.",
		counter(&m.freedNodes))

	r.RegisterHistogram("ildq_apply_seconds",
		"ApplyUpdates wall-clock per batch: copy-on-write build and publish, waiting for the writer lock included.",
		m.applyLatency)
	r.CounterFunc("ildq_apply_updates_total",
		"Updates applied by ApplyUpdates batches (failed updates and deletes of absent ids excluded).",
		counter(&m.appliedUpdates))

	r.CounterFunc("ildq_wal_appends_total",
		"WAL records appended (one per committed update batch); zero on ephemeral engines.",
		counter(&m.walAppends))
	r.CounterFunc("ildq_wal_bytes_total",
		"Bytes appended to the WAL, record framing included.",
		counter(&m.walBytes))
	r.CounterFunc("ildq_wal_fsyncs_total",
		"WAL fsync calls under any policy.",
		counter(&m.walFsyncs))
	r.RegisterHistogram("ildq_wal_fsync_seconds",
		"WAL fsync latency.",
		m.fsyncLatency)
	r.CounterFunc("ildq_checkpoints_total",
		"Checkpoints completed by this process.",
		counter(&m.checkpoints))
	r.RegisterHistogram("ildq_checkpoint_seconds",
		"Checkpoint wall-clock duration (serialize + sync + publish).",
		m.checkpointDur)
	r.GaugeFunc("ildq_checkpoint_age_seconds",
		"Time since the live checkpoint was written; zero when none exists.",
		func() float64 {
			s := e.DurabilityStats()
			if !s.Enabled || s.LastCheckpointAt.IsZero() {
				return 0
			}
			return time.Since(s.LastCheckpointAt).Seconds()
		})
	r.GaugeFunc("ildq_wal_segments",
		"Live WAL segment files.",
		func() float64 { return float64(e.DurabilityStats().WAL.Segments) })
	r.GaugeFunc("ildq_wal_batches_since_checkpoint",
		"Committed batches a crash right now would replay from the WAL.",
		func() float64 { return float64(e.DurabilityStats().BatchesSinceCheckpoint) })

	r.GaugeFunc("ildq_engine_points",
		"Point objects in the current version.",
		func() float64 { return float64(e.NumPoints()) })
	r.GaugeFunc("ildq_engine_uncertain",
		"Uncertain objects in the current version.",
		func() float64 { return float64(e.NumUncertain()) })
	r.GaugeFunc("ildq_engine_version",
		"Current engine mutation epoch.",
		func() float64 { return float64(e.Version()) })

	r.GaugeFunc("ildq_snapshot_age_seconds",
		"Age of the newest published state (time since the last committed mutation).",
		func() float64 { return e.SnapshotStats().Age.Seconds() })
	r.GaugeFunc("ildq_snapshot_pins",
		"Outstanding pins: in-flight evaluations plus open snapshots.",
		func() float64 { return float64(e.SnapshotStats().Pins) })
	r.GaugeFunc("ildq_snapshot_version_lag",
		"Versions between the newest state and the oldest pinned one.",
		func() float64 { return float64(e.SnapshotStats().VersionLag) })
	r.GaugeFunc("ildq_snapshot_retired_nodes",
		"Superseded index nodes whose reclamation is blocked by pins.",
		func() float64 { return float64(e.SnapshotStats().RetiredNodes) })
	r.GaugeFunc("ildq_snapshot_open",
		"Registered snapshots not yet closed.",
		func() float64 { return float64(e.SnapshotStats().OpenSnapshots) })
	r.GaugeFunc("ildq_snapshot_forced_closes_total",
		"Snapshots force-closed for exceeding MaxSnapshotAge.",
		func() float64 { return float64(e.SnapshotStats().ForcedCloses) })

	for _, side := range []struct {
		name string
		pick func(StorageStats) PoolStats
	}{
		{"point", func(s StorageStats) PoolStats { return s.Point }},
		{"uncertain", func(s StorageStats) PoolStats { return s.Uncertain }},
	} {
		lbl := obs.Label{Name: "store", Value: side.name}
		pick := side.pick
		r.CounterFunc("ildq_pool_logical_reads_total",
			"Buffer-pool page requests (hits + misses); zero over in-memory stores.",
			func() float64 { return float64(pick(e.StorageStats()).Stats.LogicalReads) }, lbl)
		r.CounterFunc("ildq_pool_physical_reads_total",
			"Buffer-pool misses that reached the backing store.",
			func() float64 { return float64(pick(e.StorageStats()).Stats.PhysicalReads) }, lbl)
		r.CounterFunc("ildq_pool_hits_total",
			"Buffer-pool page requests served from cache (logical - physical reads).",
			func() float64 {
				s := pick(e.StorageStats()).Stats
				return float64(s.LogicalReads - s.PhysicalReads)
			}, lbl)
		r.CounterFunc("ildq_pool_page_writes_total",
			"Pages written back to the store.",
			func() float64 { return float64(pick(e.StorageStats()).Stats.PageWrites) }, lbl)
		r.CounterFunc("ildq_pool_evictions_total",
			"Frames evicted from the pool.",
			func() float64 { return float64(pick(e.StorageStats()).Stats.Evictions) }, lbl)
		r.GaugeFunc("ildq_pool_resident_pages",
			"Pages currently cached.",
			func() float64 { return float64(pick(e.StorageStats()).Resident) }, lbl)
	}
}
