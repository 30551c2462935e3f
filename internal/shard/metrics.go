package shard

import (
	"time"

	"repro/internal/obs"
)

// routerMetrics is the router's observability surface, exported on the
// router's own /metrics. Per-shard families use the registry's Vec
// instruments, so each shard id materialises one labeled series
// (ildq_router_shard_requests_total{shard="2"}) without name mangling.
type routerMetrics struct {
	reg      *obs.Registry
	requests *obs.CounterVec // requests issued, per shard (retries excluded)
	retries  *obs.CounterVec // retry attempts, per shard
	failures *obs.CounterVec // requests failed after all retries, per shard
	updates  *obs.CounterVec // updates routed, per shard (replicas counted)
	partial  *obs.Counter    // fail-open responses (Partial:true)
	merge    *obs.HistogramVec
	fanout   *obs.Histogram
	nnRounds *obs.Histogram // candidate-collection rounds per NN request
	nnAsked  *obs.Histogram // distinct shards asked per NN request
	// framesDropped counts delta frames a shard's feed delivered that the
	// router could not use: a frame the relay refuses ends the stream of
	// the query it was addressed to, broken framing the whole feed.
	framesDropped *obs.CounterVec
	// membersLost counts standing-query members whose feed would not
	// open or was lost (each ends a subscriber stream).
	membersLost *obs.CounterVec
	// feedLost counts delta feeds that broke, ended or carried broken
	// framing; overflow counts subscriber streams ended because their
	// buffered frames reached maxBuffered.
	feedLost *obs.CounterVec
	overflow *obs.Counter
	// replyBytes is the size of each shard reply body the router read,
	// per op — the production twin of the benchmark's serve.resp_bytes.
	replyBytes *obs.HistogramVec
}

var fanoutBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}

// replyByteBuckets run 256 B … 16 MB (serve.MaxBodyBytes) in powers of 4.
var replyByteBuckets = []float64{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22, 1 << 24}

func newRouterMetrics() *routerMetrics {
	reg := obs.NewRegistry()
	m := &routerMetrics{
		reg: reg,
		requests: reg.CounterVec("ildq_router_shard_requests_total",
			"Shard requests issued by the router (first attempts).", "shard"),
		retries: reg.CounterVec("ildq_router_shard_retries_total",
			"Shard request retry attempts.", "shard"),
		failures: reg.CounterVec("ildq_router_shard_failures_total",
			"Shard requests that failed after exhausting the retry budget.", "shard"),
		updates: reg.CounterVec("ildq_router_shard_updates_total",
			"Updates routed to each shard: replicated upserts counted per replica, and the eviction delete each upsert sends every other shard counted too.", "shard"),
		partial: reg.Counter("ildq_router_partial_total",
			"Fail-open responses returned with Partial:true."),
		merge: reg.HistogramVec("ildq_router_merge_seconds",
			"Scatter-gather wall time per request, fan-out to merged response.",
			obs.LatencyBuckets(), "op"),
		fanout: reg.Histogram("ildq_router_fanout_shards",
			"Shards contacted per scatter (an NN request scatters once per round).",
			fanoutBuckets),
		nnRounds: reg.Histogram("ildq_router_nn_rounds",
			"Candidate-collection rounds per NN request: 1 when the home shards cover the tau ball, else 2.",
			[]float64{1, 2}),
		nnAsked: reg.Histogram("ildq_router_nn_shards_asked",
			"Distinct shards asked for candidates per NN request, over both rounds.",
			fanoutBuckets),
		framesDropped: reg.CounterVec("ildq_router_stream_frames_dropped_total",
			"Delta frames from a shard's feed the router could not use; each ends the addressed subscriber's stream (broken framing: every stream on the feed) with an error event.", "shard"),
		membersLost: reg.CounterVec("ildq_router_stream_members_lost_total",
			"Standing-query members whose shard delta feed would not open or was lost; each ends the subscriber's stream with an error event.", "shard"),
		feedLost: reg.CounterVec("ildq_router_feed_lost_total",
			"Shard delta feeds that broke, ended, or carried broken framing; the next registration on the shard opens a fresh one.", "shard"),
		overflow: reg.Counter("ildq_router_stream_overflow_total",
			"Subscriber streams ended with an error event because their undelivered frames reached the router's buffer bound."),
		replyBytes: reg.HistogramVec("ildq_router_shard_reply_bytes",
			"Bytes of each 2xx shard reply body the router read, by op (evaluate, nn, updates, register).",
			replyByteBuckets, "op"),
	}
	reg.HeapLiveGauge()
	return m
}

// mergeTimer starts the scatter-gather stopwatch for one op; the
// returned func observes the elapsed time.
func (m *routerMetrics) mergeTimer(op string) func() {
	h := m.merge.With(op)
	start := time.Now()
	return func() { h.ObserveDuration(time.Since(start)) }
}
