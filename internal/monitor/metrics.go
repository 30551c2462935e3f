package monitor

import (
	"time"

	"repro/internal/obs"
)

// monMetrics is the monitor's always-on batch telemetry: how long an
// ApplyUpdates pass takes end to end, and the per-batch distributions
// behind the guard filter's effectiveness — subscriptions woken,
// skips earned, objects re-qualified by per-object maintenance, and
// the aggregate delta size each batch produced.
// Recording is one histogram observation per counter per batch, off
// every per-query path.
type monMetrics struct {
	batchSeconds *obs.Histogram
	batchReevals *obs.Histogram
	batchSkips   *obs.Histogram
	batchObjects *obs.Histogram
	batchDeltas  *obs.Histogram
}

func newMonMetrics() *monMetrics {
	counts := obs.CountBuckets(4096)
	return &monMetrics{
		batchSeconds: obs.NewHistogram(obs.LatencyBuckets()),
		batchReevals: obs.NewHistogram(counts),
		batchSkips:   obs.NewHistogram(counts),
		batchObjects: obs.NewHistogram(counts),
		batchDeltas:  obs.NewHistogram(counts),
	}
}

// observeBatch records one finished ApplyUpdates pass.
func (mm *monMetrics) observeBatch(d time.Duration, out BatchOutcome) {
	mm.batchSeconds.ObserveDuration(d)
	mm.batchReevals.Observe(float64(out.Reevaluated))
	mm.batchSkips.Observe(float64(out.Skipped))
	mm.batchObjects.Observe(float64(out.Requalified))
	mm.batchDeltas.Observe(float64(out.Entered + out.Left + out.Changed))
}

// RegisterMetrics registers the monitor's telemetry on r: the lifetime
// counters already kept for Stats, the live-subscription gauge, and
// the per-batch histograms. Call once per registry.
func (m *Monitor) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("ildq_standing_queries",
		"Live standing queries.",
		func() float64 { return float64(m.Stats().Registered) })
	r.CounterFunc("ildq_monitor_batches_total",
		"Update batches ingested through the monitor.",
		func() float64 { return float64(m.batches.Load()) })
	r.CounterFunc("ildq_monitor_updates_applied_total",
		"Updates committed by monitor-ingested batches.",
		func() float64 { return float64(m.updates.Load()) })
	r.CounterFunc("ildq_monitor_reevaluated_total",
		"Standing queries brought up to date because a batch touched their guard region, per object or in full.",
		func() float64 { return float64(m.reeval.Load()) })
	r.CounterFunc("ildq_monitor_full_reevals_total",
		"Of those, complete re-evaluations: NN, basic-method and stale standing queries.",
		func() float64 { return float64(m.fullReevals.Load()) })
	r.CounterFunc("ildq_monitor_requalified_objects_total",
		"Objects re-qualified by per-object maintenance of standing range queries.",
		func() float64 { return float64(m.requalified.Load()) })
	r.CounterFunc("ildq_monitor_skipped_total",
		"Standing-query re-evaluations the guard-region filter avoided.",
		func() float64 { return float64(m.skipped.Load()) })
	r.CounterFunc("ildq_monitor_deltas_total",
		"Deltas queued across all subscriptions.",
		func() float64 { return float64(m.deltas.Load()) })
	r.CounterFunc("ildq_monitor_coalesced_total",
		"Delta-queue compositions forced by slow consumers.",
		func() float64 { return float64(m.coalesced.Load()) })
	r.CounterFunc("ildq_monitor_eval_errors_total",
		"Standing-query re-evaluations that failed (deadline, sample budget).",
		func() float64 { return float64(m.evalErrors.Load()) })

	r.RegisterHistogram("ildq_monitor_batch_seconds",
		"ApplyUpdates wall clock: engine commit plus the incremental re-evaluation pass.",
		m.met.batchSeconds)
	r.RegisterHistogram("ildq_monitor_batch_reevals",
		"Standing queries brought up to date per batch.",
		m.met.batchReevals)
	r.RegisterHistogram("ildq_monitor_batch_requalified_objects",
		"Objects re-qualified per batch across all standing range queries.",
		m.met.batchObjects)
	r.RegisterHistogram("ildq_monitor_batch_skips",
		"Standing queries guard-skipped per batch.",
		m.met.batchSkips)
	r.RegisterHistogram("ildq_monitor_batch_delta_size",
		"Aggregate delta size (entered + left + changed) per batch.",
		m.met.batchDeltas)
}
