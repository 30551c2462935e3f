package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// The wire format is a direct JSON encoding of core.Request /
// core.Response, shared by the one-shot and standing-query paths.
// Regions are [x0, y0, x1, y1]; pdfs are "uniform" (the paper's
// default) or "gaussian" (truncated, paper's σ convention when
// sigma_x/sigma_y are omitted). Unknown fields are rejected with a
// structured 400, and so are a key given twice and bytes after the
// body's value (DecodeRequest).

type IssuerJSON struct {
	Region []float64 `json:"region"`
	PDF    string    `json:"pdf,omitempty"`
	SigmaX float64   `json:"sigma_x,omitempty"`
	SigmaY float64   `json:"sigma_y,omitempty"`
}

type RequestJSON struct {
	// Kind is "uncertain" (default), "points", or "nn". Target is the
	// deprecated pre-Request spelling, honored as an alias when Kind
	// is empty.
	Kind      string     `json:"kind,omitempty"`
	Target    string     `json:"target,omitempty"`
	Issuer    IssuerJSON `json:"issuer"`
	W         float64    `json:"w,omitempty"`
	H         float64    `json:"h,omitempty"`
	Threshold float64    `json:"threshold,omitempty"`
	K         int        `json:"k,omitempty"`
	NNSamples int        `json:"nn_samples,omitempty"`
	Seed      int64      `json:"seed,omitempty"`
	// Trace asks for the per-stage cost breakdown (pin, filter,
	// refine, merge) in the response — one-shot evaluation only.
	Trace bool `json:"trace,omitempty"`
}

type UpdateJSON struct {
	Op     string    `json:"op"` // upsert_point | delete_point | upsert_object | delete_object
	ID     int64     `json:"id"`
	X      float64   `json:"x,omitempty"`
	Y      float64   `json:"y,omitempty"`
	Region []float64 `json:"region,omitempty"`
	PDF    string    `json:"pdf,omitempty"`
	SigmaX float64   `json:"sigma_x,omitempty"`
	SigmaY float64   `json:"sigma_y,omitempty"`
}

type MatchJSON struct {
	ID int64   `json:"id"`
	P  float64 `json:"p"`
}

type CostJSON struct {
	Candidates   int     `json:"candidates"`
	Refined      int     `json:"refined"`
	SamplesUsed  int64   `json:"samples_used"`
	EarlyStopped int     `json:"early_stopped"`
	NodeAccesses int64   `json:"node_accesses"`
	DurationMS   float64 `json:"duration_ms"`
}

// SpanJSON is one trace stage in an evaluate response.
type SpanJSON struct {
	Stage        string  `json:"stage"`
	StartMS      float64 `json:"start_ms"`
	DurationMS   float64 `json:"duration_ms"`
	NodeAccesses int64   `json:"node_accesses,omitempty"`
	Samples      int64   `json:"samples,omitempty"`
	Items        int     `json:"items,omitempty"`
	Note         string  `json:"note,omitempty"`
}

// DeltaJSON is one frame of a standing query's delta stream. A shard
// writes it straight from monitor.Delta (AppendDelta); a router relays
// the shard's bytes with Shard spliced in (AppendRelayedDelta), which
// relies on Seq and Version leading the field order.
type DeltaJSON struct {
	Seq uint64 `json:"seq"`
	// Version is the engine version the delta's re-evaluation observed.
	// Per shard it is strictly monotone over the stream; a router
	// merging shard streams tags each frame with the shard id, so the
	// pairs form a per-shard version vector and replay stays bit-exact
	// per shard.
	Version   uint64      `json:"version"`
	Shard     string      `json:"shard,omitempty"`
	Entered   []MatchJSON `json:"entered,omitempty"`
	Updated   []MatchJSON `json:"updated,omitempty"`
	Left      []int64     `json:"left,omitempty"`
	Error     string      `json:"error,omitempty"`
	Coalesced int         `json:"coalesced"`
	Cost      CostJSON    `json:"cost"`
}

func ToRect(vals []float64) (geom.Rect, error) {
	if len(vals) != 4 {
		return geom.Rect{}, fmt.Errorf("region wants [x0, y0, x1, y1], got %d values", len(vals))
	}
	r := geom.RectFromCorners(geom.Pt(vals[0], vals[1]), geom.Pt(vals[2], vals[3]))
	if err := r.Validate(); err != nil {
		return geom.Rect{}, err
	}
	return r, nil
}

func ToPDF(region geom.Rect, kind string, sx, sy float64) (pdf.PDF, error) {
	switch kind {
	case "", "uniform":
		return pdf.NewUniform(region)
	case "gaussian":
		return pdf.NewTruncGaussian(region, sx, sy)
	default:
		return nil, fmt.Errorf("unknown pdf %q (want uniform or gaussian)", kind)
	}
}

// maxRequestNNSamples caps the client-requested NN shared-stream
// length (the total issuer positions drawn, tallied against every
// candidate).
const maxRequestNNSamples = 1 << 20

// DefaultNNBudget bounds an NN request's refinement work when neither
// the client nor the operator set a budget. The shared-stream kernel
// draws nn_samples positions and looks each one's nearest candidate up
// in a grid over the candidates: O(candidates + samples) expected, but
// samples × candidates distance checks in the worst case (candidates
// crowded into one grid cell, which the request does not reveal up
// front). The budget therefore keeps bounding that product; a
// wide-issuer request over a large point database that would exceed it
// gets a structured 400 up front (core.ErrSampleBudget), not a slow
// death. Operators override with -max-samples.
const DefaultNNBudget = 1 << 24

// DefaultPerQueryLimit caps the per-standing-query series emitted on
// /metrics when the operator sets no explicit -metrics-per-query-limit:
// the top entries by cumulative evaluation time are listed, the rest
// are summarized by ildq_standing_queries_unlisted. Unbounded
// per-query labels would make scrape cardinality grow with the number
// of registered queries.
const DefaultPerQueryLimit = 50

// ToRequest decodes the wire request into a validated core.Request.
// Errors are *core.RequestError where validation fails, so handlers
// can surface the offending field.
func (rj RequestJSON) ToRequest() (core.Request, error) {
	kindName := rj.Kind
	if kindName == "" {
		kindName = rj.Target // deprecated alias
	}
	var kind core.Kind
	switch kindName {
	case "", "uncertain":
		kind = core.KindUncertain
	case "points":
		kind = core.KindPoints
	case "nn":
		kind = core.KindNN
	default:
		return core.Request{}, &core.RequestError{Field: "kind",
			Err: fmt.Errorf("%w: %q (want uncertain, points, or nn)", core.ErrBadKind, kindName)}
	}
	region, err := ToRect(rj.Issuer.Region)
	if err != nil {
		return core.Request{}, &core.RequestError{Field: "issuer", Err: err}
	}
	p, err := ToPDF(region, rj.Issuer.PDF, rj.Issuer.SigmaX, rj.Issuer.SigmaY)
	if err != nil {
		return core.Request{}, &core.RequestError{Field: "issuer", Err: err}
	}
	iss, err := uncertain.NewObject(-1, p, uncertain.PaperCatalogProbs())
	if err != nil {
		return core.Request{}, &core.RequestError{Field: "issuer", Err: err}
	}
	nnSamples := rj.NNSamples
	if nnSamples > maxRequestNNSamples {
		nnSamples = maxRequestNNSamples
	}
	req := core.Request{
		Kind:      kind,
		Issuer:    iss,
		W:         rj.W,
		H:         rj.H,
		Threshold: rj.Threshold,
		K:         rj.K,
		NNSamples: nnSamples,
		Seed:      rj.Seed,
	}
	return req, req.Validate()
}

// parse is everything ToUpdate checks: the op and, for an object, its
// pdf. What it leaves out is uncertain.NewObject, which computes the
// object's U-catalog and cannot fail on a pdf that exists — the catalog
// probabilities are constants in [0, 1].
func (uj UpdateJSON) parse() (core.UpdateOp, pdf.PDF, error) {
	switch uj.Op {
	case "upsert_point":
		return core.OpUpsertPoint, nil, nil
	case "delete_point":
		return core.OpDeletePoint, nil, nil
	case "upsert_object":
		region, err := ToRect(uj.Region)
		if err != nil {
			return 0, nil, err
		}
		p, err := ToPDF(region, uj.PDF, uj.SigmaX, uj.SigmaY)
		return core.OpUpsertObject, p, err
	case "delete_object":
		return core.OpDeleteObject, nil, nil
	default:
		return 0, nil, fmt.Errorf("unknown op %q", uj.Op)
	}
}

// Validate returns the error ToUpdate would, without building the
// object: what a router checks before it routes a batch it does not
// apply itself.
func (uj UpdateJSON) Validate() error {
	_, _, err := uj.parse()
	return err
}

func (uj UpdateJSON) ToUpdate() (core.Update, error) {
	op, p, err := uj.parse()
	if err != nil {
		return core.Update{}, err
	}
	id := uncertain.ID(uj.ID)
	switch op {
	case core.OpUpsertPoint:
		return core.Update{Op: op, Point: uncertain.PointObject{ID: id, Loc: geom.Pt(uj.X, uj.Y)}}, nil
	case core.OpUpsertObject:
		o, err := uncertain.NewObject(id, p, uncertain.PaperCatalogProbs())
		if err != nil {
			return core.Update{}, err
		}
		return core.Update{Op: op, Object: o}, nil
	default:
		return core.Update{Op: op, ID: id}, nil
	}
}

func ToMatchesJSON(ms []core.Match) []MatchJSON {
	out := make([]MatchJSON, len(ms))
	for i, m := range ms {
		out[i] = MatchJSON{ID: int64(m.ID), P: m.P}
	}
	return out
}

func ToCostJSON(c core.Cost) CostJSON {
	return CostJSON{
		Candidates:   c.Candidates,
		Refined:      c.Refined,
		SamplesUsed:  c.SamplesUsed,
		EarlyStopped: c.EarlyStopped,
		NodeAccesses: c.NodeAccesses,
		DurationMS:   float64(c.Duration.Nanoseconds()) / 1e6,
	}
}

func toTraceJSON(tr *obs.Trace) []SpanJSON {
	spans := tr.Spans()
	out := make([]SpanJSON, len(spans))
	for i, sp := range spans {
		out[i] = SpanJSON{
			Stage:        sp.Name,
			StartMS:      float64(sp.Start.Nanoseconds()) / 1e6,
			DurationMS:   float64(sp.Duration.Nanoseconds()) / 1e6,
			NodeAccesses: sp.NodeAccesses,
			Samples:      sp.Samples,
			Items:        sp.Items,
			Note:         sp.Note,
		}
	}
	return out
}

// Config carries the operator's observability knobs.
type Config struct {
	// SlowQuery is the one-shot latency threshold above which a query
	// is counted slow and (subject to sampling) logged. Zero disables
	// slow-query logging entirely.
	SlowQuery time.Duration
	// SlowEvery samples the slow-query log: every Nth slow query is
	// written (1 = all). The ildq_slow_queries_total counter sees every
	// slow query regardless.
	SlowEvery int
	// PerQueryLimit caps the per-standing-query series on /metrics
	// (top-K by cumulative eval time). 0 means DefaultPerQueryLimit;
	// negative means unlimited.
	PerQueryLimit int
	// Pprof mounts net/http/pprof under /debug/pprof.
	Pprof bool
	// Logger receives the structured serve log (slow queries, swallowed
	// write errors at debug). Nil discards.
	Logger *slog.Logger
	// ShardID identifies this process within a sharded fleet; echoed on
	// /healthz so a router can verify it is talking to the shard it
	// thinks it is. Empty for a standalone server.
	ShardID string
	// Tiles is the opaque tile-map spec this shard was booted with
	// (shard.TileMap.Spec()); echoed on /healthz so a router can detect
	// version skew — a shard running a different partitioning than the
	// router would silently own the wrong objects.
	Tiles string
}

// Server is the HTTP layer over one monitor: one-shot evaluation,
// standing-query registration and SSE delta streaming, update
// ingestion, and metrics. defaults are the operator's evaluation
// options (deadline, sample budget), applied to wire requests that
// carry none of their own.
type Server struct {
	mon      *monitor.Monitor
	defaults core.EvalOptions
	cfg      Config
	mux      *http.ServeMux
	reg      *obs.Registry
	log      *slog.Logger

	// reqID numbers one-shot evaluations for log/trace correlation;
	// slowSeen counts slow queries for log sampling.
	reqID    atomic.Int64
	slowSeen atomic.Int64
	slow     *obs.Counter

	// feeds are the open delta feeds by token (feed.go); feedWrites
	// observes the frames each feed write carried.
	feedsMu    sync.Mutex
	feeds      map[string]*feed
	feedWrites *obs.Histogram
}

func NewServer(mon *monitor.Monitor, defaults core.EvalOptions, cfg Config) *Server {
	if cfg.PerQueryLimit == 0 {
		cfg.PerQueryLimit = DefaultPerQueryLimit
	}
	if cfg.SlowEvery <= 0 {
		cfg.SlowEvery = 1
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		mon:      mon,
		defaults: defaults,
		cfg:      cfg,
		mux:      http.NewServeMux(),
		reg:      obs.NewRegistry(),
		log:      cfg.Logger,
		feeds:    make(map[string]*feed),
	}
	mon.Engine().RegisterMetrics(s.reg)
	mon.RegisterMetrics(s.reg)
	s.registerServeMetrics()
	s.reg.HeapLiveGauge()

	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("POST /v1/queries", s.handleRegister)
	s.mux.HandleFunc("GET /v1/queries/{id}", s.handleQueryGet)
	s.mux.HandleFunc("DELETE /v1/queries/{id}", s.handleQueryDelete)
	s.mux.HandleFunc("GET /v1/queries/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/feeds/{token}/stream", s.handleFeed)
	s.mux.HandleFunc("POST /v1/updates", s.handleUpdates)
	s.mux.HandleFunc("POST /v1/nn/candidates", s.handleNNCandidates)
	s.mux.HandleFunc("POST /v1/admin/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if cfg.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// evalKinds orders the kinds for stable /metrics emission.
var evalKinds = [3]core.Kind{core.KindUncertain, core.KindPoints, core.KindNN}

// registerServeMetrics adds the serve-layer families on top of the
// engine's and monitor's: per-kind standing aggregates, the capped
// per-query series, and the slow-query counter. Per-query families are
// dynamic collectors — their members change between scrapes — capped
// at cfg.PerQueryLimit by cumulative evaluation time, with the
// remainder summarized in ildq_standing_queries_unlisted.
func (s *Server) registerServeMetrics() {
	s.slow = s.reg.Counter("ildq_slow_queries_total",
		"One-shot evaluations slower than the -slow-query threshold.")
	s.feedWrites = s.reg.Histogram("ildq_feed_write_frames",
		"Delta frames per write on a delta feed: one write carries a whole monitor pass.",
		obs.CountBuckets(4096))

	s.reg.GaugeFunc("ildq_standing_queries_unlisted",
		"Standing queries beyond -metrics-per-query-limit, summarized instead of listed.",
		func() float64 {
			n := len(s.mon.Subscriptions()) - s.cfg.PerQueryLimit
			if s.cfg.PerQueryLimit < 0 || n < 0 {
				n = 0
			}
			return float64(n)
		})

	// Per-kind standing aggregates, recomputed from the live
	// subscriptions at scrape time so they stay consistent with the
	// per-query series below.
	type standingAgg struct {
		queries, reevals, guardSkips, samples, earlyStopped float64
	}
	aggregate := func() map[core.Kind]*standingAgg {
		agg := map[core.Kind]*standingAgg{}
		for _, k := range evalKinds {
			agg[k] = &standingAgg{}
		}
		for _, sub := range s.mon.Subscriptions() {
			a, ok := agg[sub.Request().Kind]
			if !ok {
				continue
			}
			qs := sub.Stats()
			a.queries++
			a.reevals += float64(qs.Reevals)
			a.guardSkips += float64(qs.Skipped)
			a.samples += float64(qs.Samples)
			a.earlyStopped += float64(qs.EarlyStopped)
		}
		return agg
	}
	perKind := func(pick func(*standingAgg) float64) func(emit func(v float64, labels ...obs.Label)) {
		return func(emit func(v float64, labels ...obs.Label)) {
			agg := aggregate()
			for _, k := range evalKinds {
				emit(pick(agg[k]), obs.Label{Name: "kind", Value: k.String()})
			}
		}
	}
	s.reg.GaugeSet("ildq_standing_queries_by_kind",
		"Live standing queries per request kind.",
		perKind(func(a *standingAgg) float64 { return a.queries }))
	s.reg.CounterSet("ildq_standing_reevals_total",
		"Standing-query re-evaluations per request kind (registration included).",
		perKind(func(a *standingAgg) float64 { return a.reevals }))
	s.reg.CounterSet("ildq_standing_guard_skips_total",
		"Standing-query re-evaluations avoided by the guard-region filter, per kind.",
		perKind(func(a *standingAgg) float64 { return a.guardSkips }))
	s.reg.CounterSet("ildq_standing_samples_total",
		"Monte-Carlo samples drawn by standing-query re-evaluations, per kind.",
		perKind(func(a *standingAgg) float64 { return a.samples }))
	s.reg.CounterSet("ildq_standing_early_stopped_total",
		"Candidates retired early during standing-query refinement, per kind.",
		perKind(func(a *standingAgg) float64 { return a.earlyStopped }))

	// Per-query series: top-K by cumulative eval time, one collector
	// per family.
	perQuery := func(pick func(monitor.SubStats, *monitor.Subscription) float64) func(emit func(v float64, labels ...obs.Label)) {
		return func(emit func(v float64, labels ...obs.Label)) {
			for _, sub := range s.topSubscriptions() {
				emit(pick(sub.Stats(), sub),
					obs.Label{Name: "query", Value: strconv.FormatInt(sub.ID(), 10)})
			}
		}
	}
	s.reg.CounterSet("ildq_query_reevals_total",
		"Re-evaluations of this standing query (top queries by eval time).",
		perQuery(func(st monitor.SubStats, _ *monitor.Subscription) float64 { return float64(st.Reevals) }))
	s.reg.CounterSet("ildq_query_skipped_total",
		"Guard-filtered batch skips for this standing query.",
		perQuery(func(st monitor.SubStats, _ *monitor.Subscription) float64 { return float64(st.Skipped) }))
	s.reg.CounterSet("ildq_query_samples_total",
		"Monte-Carlo samples drawn re-evaluating this standing query.",
		perQuery(func(st monitor.SubStats, _ *monitor.Subscription) float64 { return float64(st.Samples) }))
	s.reg.CounterSet("ildq_query_early_stopped_total",
		"Candidates retired early re-evaluating this standing query.",
		perQuery(func(st monitor.SubStats, _ *monitor.Subscription) float64 { return float64(st.EarlyStopped) }))
	s.reg.CounterSet("ildq_query_node_accesses_total",
		"Index nodes read re-evaluating this standing query.",
		perQuery(func(st monitor.SubStats, _ *monitor.Subscription) float64 { return float64(st.NodeAccesses) }))
	s.reg.CounterSet("ildq_query_eval_seconds_total",
		"Cumulative evaluation wall clock of this standing query.",
		perQuery(func(st monitor.SubStats, _ *monitor.Subscription) float64 { return st.EvalTime.Seconds() }))
	s.reg.GaugeSet("ildq_query_matches",
		"Current answer size of this standing query.",
		perQuery(func(_ monitor.SubStats, sub *monitor.Subscription) float64 { return float64(sub.Size()) }))
}

// topSubscriptions returns the standing queries whose per-query series
// are emitted: all of them when under the limit, otherwise the top
// PerQueryLimit by cumulative evaluation time (the queries costing the
// most are the ones worth a label).
func (s *Server) topSubscriptions() []*monitor.Subscription {
	subs := s.mon.Subscriptions()
	limit := s.cfg.PerQueryLimit
	if limit < 0 || len(subs) <= limit {
		return subs
	}
	type ranked struct {
		sub  *monitor.Subscription
		cost time.Duration
	}
	rs := make([]ranked, len(subs))
	for i, sub := range subs {
		rs[i] = ranked{sub, sub.Stats().EvalTime}
	}
	// Stable on the id-ordered input, so ties keep registration order.
	slices.SortStableFunc(rs, func(a, b ranked) int {
		return cmp.Compare(b.cost, a.cost)
	})
	out := make([]*monitor.Subscription, limit)
	for i := range out {
		out[i] = rs[i].sub
	}
	return out
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// decodeRequest decodes and validates the wire form of core.Request,
// writing a structured 400 on failure. The raw wire request is
// returned alongside for serve-only fields (trace).
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (RequestJSON, core.Request, bool) {
	rj, err := ReadRequest(w, r)
	if err != nil {
		WriteBodyError(s.log, w, err)
		return rj, core.Request{}, false
	}
	req, err := rj.ToRequest()
	if err != nil {
		WriteError(s.log, w, http.StatusBadRequest, err)
		return rj, core.Request{}, false
	}
	// Requests carrying no options of their own inherit the
	// operator's deadline and sample budget; NN requests always run
	// under some budget (their work is samples × candidates distance
	// scans, so a wide-issuer request over a dense region must be
	// refused up front rather than served slowly).
	if req.Options == (core.EvalOptions{}) {
		req.Options = s.defaults
	}
	if req.Kind == core.KindNN && req.Options.MaxSamples == 0 {
		req.Options.MaxSamples = DefaultNNBudget
	}
	return rj, req, true
}

// POST /v1/evaluate — one-shot request.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	rj, req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	rid := strconv.FormatInt(s.reqID.Add(1), 10)
	ctx := r.Context()
	var tr *obs.Trace
	if rj.Trace {
		tr = obs.NewTrace(rid)
		ctx = obs.WithTrace(ctx, tr)
	}
	resp, err := s.mon.Engine().Evaluate(ctx, req)
	if err != nil {
		WriteRequestError(s.log, w, err)
		return
	}
	s.observeSlow(rid, req, resp, tr)
	// Matches stays empty: the list is encoded from the engine's slice.
	body := EvaluateResponse{
		RequestID: rid,
		Kind:      resp.Kind.String(),
		Version:   resp.Version,
		Cost:      ToCostJSON(resp.Cost),
	}
	if tr != nil {
		body.Trace = toTraceJSON(tr)
	}
	WriteBody(s.log, w, http.StatusOK, func(dst []byte) ([]byte, error) {
		return AppendEngineEvaluateResponse(dst, &body, resp.Matches)
	})
}

// observeSlow counts and (sampled) logs one-shot evaluations slower
// than the operator's threshold. The log line carries the request id
// the client saw, the headline cost counters, and — when the request
// was traced — the per-stage breakdown.
func (s *Server) observeSlow(rid string, req core.Request, resp core.Response, tr *obs.Trace) {
	if s.cfg.SlowQuery <= 0 || resp.Cost.Duration < s.cfg.SlowQuery {
		return
	}
	s.slow.Inc()
	n := s.slowSeen.Add(1)
	if every := int64(s.cfg.SlowEvery); every > 1 && (n-1)%every != 0 {
		return
	}
	attrs := []any{
		"request_id", rid,
		"kind", req.Kind.String(),
		"duration_ms", float64(resp.Cost.Duration.Nanoseconds()) / 1e6,
		"threshold_ms", float64(s.cfg.SlowQuery.Nanoseconds()) / 1e6,
		"candidates", resp.Cost.Candidates,
		"refined", resp.Cost.Refined,
		"samples", resp.Cost.SamplesUsed,
		"node_accesses", resp.Cost.NodeAccesses,
	}
	if tr != nil {
		attrs = append(attrs, "stages", stageSummary(tr))
	}
	s.log.Warn("slow query", attrs...)
}

// stageSummary flattens a trace into "filter=1.2ms refine=8.0ms ..."
// for the slow-query log line.
func stageSummary(tr *obs.Trace) string {
	var b strings.Builder
	for i, sp := range tr.Spans() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.3fms", sp.Name, float64(sp.Duration.Nanoseconds())/1e6)
	}
	return b.String()
}

// POST /v1/queries — register a standing request; with ?feed={token}
// its deltas go out on that open feed (feed.go), not on its own stream.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	_, req, ok := s.decodeRequest(w, r)
	if !ok {
		return
	}
	var f *feed
	if token := r.URL.Query().Get("feed"); token != "" {
		if f, ok = s.lookupFeed(token); !ok {
			WriteError(s.log, w, http.StatusConflict, fmt.Errorf("%w %q", errNoFeed, token))
			return
		}
	}
	sub, err := s.mon.Register(req)
	if err != nil {
		WriteRequestError(s.log, w, err)
		return
	}
	if f != nil && !f.attach(sub) {
		s.mon.Unregister(sub.ID())
		WriteError(s.log, w, http.StatusConflict, fmt.Errorf("%w: it ended during the registration", errNoFeed))
		return
	}
	body := RegisterResponse{ID: sub.ID(), Kind: sub.Request().Kind.String()}
	WriteBody(s.log, w, http.StatusCreated, func(dst []byte) ([]byte, error) {
		return appendEngineRegisterResponse(dst, &body, sub.Snapshot())
	})
}

func (s *Server) subscription(w http.ResponseWriter, r *http.Request) (*monitor.Subscription, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		WriteError(s.log, w, http.StatusBadRequest, fmt.Errorf("bad query id: %w", err))
		return nil, false
	}
	sub, ok := s.mon.Subscription(id)
	if !ok {
		WriteError(s.log, w, http.StatusNotFound, fmt.Errorf("no standing query %d", id))
		return nil, false
	}
	return sub, true
}

// GET /v1/queries/{id} — current answer and per-query counters.
func (s *Server) handleQueryGet(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.subscription(w, r)
	if !ok {
		return
	}
	st := sub.Stats()
	WriteJSON(s.log, w, http.StatusOK, map[string]any{
		"id":       sub.ID(),
		"snapshot": ToMatchesJSON(sub.Snapshot()),
		"stats": map[string]any{
			"reevals":       st.Reevals,
			"skipped":       st.Skipped,
			"deltas":        st.Deltas,
			"coalesced":     st.Coalesced,
			"errors":        st.Errors,
			"samples":       st.Samples,
			"early_stopped": st.EarlyStopped,
			"node_accesses": st.NodeAccesses,
			"eval_seconds":  st.EvalTime.Seconds(),
		},
	})
}

// DELETE /v1/queries/{id} — unregister.
func (s *Server) handleQueryDelete(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.subscription(w, r)
	if !ok {
		return
	}
	s.mon.Unregister(sub.ID())
	w.WriteHeader(http.StatusNoContent)
}

// GET /v1/queries/{id}/stream — the delta stream as server-sent
// events. The first event is the registration snapshot if nothing has
// drained it yet; replaying all events from an empty set reconstructs
// the live answer after every batch.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.subscription(w, r)
	if !ok {
		return
	}
	if sub.Attached() {
		WriteError(s.log, w, http.StatusConflict, fmt.Errorf("standing query %d is delivered on a delta feed", sub.ID()))
		return
	}
	StartSSE(w)
	var frame []byte
	for {
		d, err := sub.Next(r.Context())
		if err != nil {
			if errors.Is(err, monitor.ErrClosed) {
				WriteSSE(w, "close", []byte("{}")) //nolint:errcheck // the stream ends either way
			}
			return
		}
		if frame, err = AppendDelta(frame[:0], &d); err != nil {
			s.log.Error("delta does not encode", "err", err)
			return
		}
		if WriteSSE(w, "", frame) != nil {
			return
		}
	}
}

// POST /v1/updates — ingest one update batch.
func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	body, err := ReadUpdatesRequest(w, r)
	if err != nil {
		WriteBodyError(s.log, w, err)
		return
	}
	batch := make([]core.Update, len(body.Updates))
	for i, uj := range body.Updates {
		u, err := uj.ToUpdate()
		if err != nil {
			WriteError(s.log, w, http.StatusBadRequest, fmt.Errorf("update %d: %w", i, err))
			return
		}
		batch[i] = u
	}
	// The engine batch commits regardless of the client connection,
	// so the incremental re-evaluation pass must not die with it — a
	// disconnect would otherwise leave every touched standing query
	// stale until the next batch.
	out, err := s.mon.ApplyUpdates(context.WithoutCancel(r.Context()), batch)
	if err != nil {
		WriteError(s.log, w, http.StatusInternalServerError, err)
		return
	}
	resp := UpdatesResponse{
		Seq:         out.Seq,
		Applied:     out.Report.Applied,
		Missing:     out.Report.Missing,
		Version:     out.Report.Version,
		Reevaluated: out.Reevaluated,
		Skipped:     out.Skipped,
		Entered:     out.Entered,
		Left:        out.Left,
		Changed:     out.Changed,
	}
	for _, e := range out.Report.Errors {
		resp.Errors = append(resp.Errors, e.Error())
	}
	WriteUpdatesResponse(s.log, w, &resp)
}

// GET /metrics — the registry's Prometheus text exposition: engine
// families (per-kind latency histograms, cost counters, MVCC and
// buffer-pool telemetry), monitor families (batch histograms, guard
// counters), and the serve families (per-kind standing aggregates,
// capped per-query series, slow queries).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WriteText(w); err != nil {
		s.log.Debug("metrics write failed", "err", err)
	}
}

// POST /v1/admin/checkpoint — force a checkpoint of the current
// committed state and truncate the WAL behind it. 409 if the server
// was started without -data-dir (an ephemeral engine has nothing to
// checkpoint). A no-op checkpoint (no batches since the last one)
// returns skipped=true.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	info, err := s.mon.Engine().Checkpoint(r.Context())
	switch {
	case err == nil:
	case errors.Is(err, core.ErrEphemeral):
		WriteError(s.log, w, http.StatusConflict, err)
		return
	default:
		WriteError(s.log, w, http.StatusInternalServerError, err)
		return
	}
	WriteJSON(s.log, w, http.StatusOK, map[string]any{
		"version":              info.Version,
		"skipped":              info.Skipped,
		"duration_ms":          float64(info.Duration.Nanoseconds()) / 1e6,
		"pages":                info.Pages,
		"wal_segments_removed": info.WALSegmentsRemoved,
	})
}

// GET /healthz — liveness plus the durability posture: whether the
// engine is durable, the last checkpoint's version and age, how much
// WAL replay the last boot needed, and how much un-checkpointed work
// the WAL currently carries.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	eng := s.mon.Engine()
	resp := map[string]any{
		"status":  "ok",
		"version": eng.Version(),
	}
	if s.cfg.ShardID != "" {
		resp["shard_id"] = s.cfg.ShardID
	}
	if s.cfg.Tiles != "" {
		resp["tiles"] = s.cfg.Tiles
	}
	ds := eng.DurabilityStats()
	resp["durable"] = ds.Enabled
	if ds.Enabled {
		resp["last_checkpoint_version"] = ds.LastCheckpointVersion
		if !ds.LastCheckpointAt.IsZero() {
			resp["last_checkpoint_age_seconds"] = time.Since(ds.LastCheckpointAt).Seconds()
		}
		resp["batches_since_checkpoint"] = ds.BatchesSinceCheckpoint
		resp["wal_replayed_at_boot"] = ds.WALReplayedAtBoot
		resp["recovery_ms"] = float64(ds.RecoveryTime.Nanoseconds()) / 1e6
		resp["wal_segments"] = ds.WAL.Segments
	}
	WriteJSON(s.log, w, http.StatusOK, resp)
}
