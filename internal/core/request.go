package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/mcbound"
	"repro/internal/obs"
	"repro/internal/uncertain"
)

// This file is the engine's unified query surface. The paper defines
// one conceptual operation — evaluate an imprecise location-dependent
// query against a set of (possibly uncertain) objects — and Request is
// its one value type: the query kind (range over uncertain objects,
// range over points, nearest neighbor), the issuer, the constraint,
// the tuning options, and the reproducibility seed, all in one
// serializable struct. Evaluate(ctx, req) on *Snapshot is the single
// evaluation entry point every other method (the Engine wrappers, the
// monitor, the HTTP server) flows through, so every evaluation —
// nearest neighbor included — runs against one pinned MVCC snapshot.
// EvaluateAll is the one fan-out form.

// Kind selects what a Request evaluates.
type Kind int

const (
	// KindUncertain answers IUQ / C-IUQ range queries over the
	// uncertain-object database (the zero value, matching the paper's
	// primary setting).
	KindUncertain Kind = iota
	// KindPoints answers IPQ / C-IPQ range queries over the
	// point-object database.
	KindPoints
	// KindNN answers imprecise nearest-neighbor queries over the
	// point-object database (the paper's §7 future-work extension):
	// for each point object, the probability that it is the issuer's
	// nearest neighbor.
	KindNN
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindUncertain:
		return "uncertain"
	case KindPoints:
		return "points"
	case KindNN:
		return "nn"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Table returns the object table a request of this kind reads — the
// only table whose updates can change its answer.
func (k Kind) Table() Table {
	if k == KindUncertain {
		return TableObjects
	}
	return TablePoints
}

// Request validation errors, wrapped by *RequestError.
var (
	// ErrBadKind reports a Kind outside the defined set.
	ErrBadKind = errors.New("core: unknown request kind")
	// ErrKindMismatch reports a field set on a request kind that does
	// not use it (range extents on an NN request, K on a range
	// request).
	ErrKindMismatch = errors.New("core: field not valid for this request kind")
	// ErrBadNNK reports a non-positive result bound on an NN request.
	ErrBadNNK = errors.New("core: nearest-neighbor K must be positive")
	// ErrBadNNSamples reports a negative NN sample count.
	ErrBadNNSamples = errors.New("core: nearest-neighbor sample count must not be negative")
)

// RequestError is the typed validation error returned by
// Request.Validate (and therefore by Evaluate and EvaluateAll for
// malformed requests). Field names the offending Request field in its
// wire spelling; Unwrap exposes the sentinel (ErrNilIssuer,
// ErrBadExtents, ErrBadThreshold, ErrBadKind, ErrKindMismatch,
// ErrBadNNK, ErrBadNNSamples) so errors.Is keeps working.
type RequestError struct {
	// Field is the offending field's wire name ("kind", "issuer",
	// "extent", "threshold", "k", "nn_samples").
	Field string
	// Err is the underlying sentinel error, possibly annotated.
	Err error
}

// Error implements error.
func (e *RequestError) Error() string {
	return fmt.Sprintf("invalid request (%s): %v", e.Field, e.Err)
}

// Unwrap exposes the wrapped sentinel for errors.Is / errors.As.
func (e *RequestError) Unwrap() error { return e.Err }

func badRequest(field string, err error) *RequestError {
	return &RequestError{Field: field, Err: err}
}

// Request is the one value describing any evaluation the engine can
// run. It is plain data — serializable, routable, and re-evaluable —
// which is what standing queries, batch serving, and the HTTP wire
// format all build on.
//
// Construct requests with the RequestUncertain / RequestPoints /
// RequestNN helpers, or as literals; Validate (called by every
// evaluation path) reports malformed combinations as a typed
// *RequestError.
type Request struct {
	// Kind selects the database and algorithm (the zero value is
	// KindUncertain).
	Kind Kind
	// Issuer is the query issuer O0: its PDF describes the location
	// uncertainty, its Catalog (if present) enables Qp-expanded
	// pruning for range kinds.
	Issuer *uncertain.Object
	// W and H are the range query rectangle's half-width and
	// half-height. Range kinds require both positive; NN requests must
	// leave them zero.
	W, H float64
	// Threshold is the probability threshold in [0, 1]; 0 means
	// unconstrained (return every object with non-zero probability).
	// It applies to every kind, NN included.
	Threshold float64
	// K bounds an NN request's answer to the K most probable nearest
	// neighbors. NN requests require K >= 1; range kinds must leave it
	// zero.
	K int
	// NNSamples is the length of the shared Monte-Carlo issuer-position
	// stream an NN evaluation tallies every candidate against
	// (0 selects 1000) — a total draw count, not a per-candidate one.
	// Range kinds must leave it zero.
	NNSamples int
	// Options tunes the evaluation (method, sampling, pruning,
	// deadline, sample budget). Options.Rng is only consulted when
	// Seed is zero.
	Options EvalOptions
	// Seed, when non-zero, makes the request self-deterministic: the
	// sampling source is derived from it, ignoring Options.Rng. Inside
	// EvaluateAll a zero Seed is filled from AllOptions.Seed and the
	// request's index.
	Seed int64
}

// RequestUncertain builds an IUQ / C-IUQ range request over the
// uncertain-object database.
func RequestUncertain(issuer *uncertain.Object, w, h, threshold float64) Request {
	return Request{Kind: KindUncertain, Issuer: issuer, W: w, H: h, Threshold: threshold}
}

// RequestPoints builds an IPQ / C-IPQ range request over the
// point-object database.
func RequestPoints(issuer *uncertain.Object, w, h, threshold float64) Request {
	return Request{Kind: KindPoints, Issuer: issuer, W: w, H: h, Threshold: threshold}
}

// RequestNN builds an imprecise nearest-neighbor request: the K most
// probable nearest neighbors of the issuer among the point objects
// (threshold 0; set Request.Threshold to constrain).
func RequestNN(issuer *uncertain.Object, k int) Request {
	return Request{Kind: KindNN, Issuer: issuer, K: k}
}

// query returns the legacy Query view of a range request.
func (r Request) query() Query {
	return Query{Issuer: r.Issuer, W: r.W, H: r.H, Threshold: r.Threshold}
}

// Validate checks the request, returning a typed *RequestError (nil
// when valid).
func (r Request) Validate() error {
	switch r.Kind {
	case KindUncertain, KindPoints:
		if r.Issuer == nil {
			return badRequest("issuer", ErrNilIssuer)
		}
		if r.W <= 0 || r.H <= 0 {
			return badRequest("extent", fmt.Errorf("%w: w=%g h=%g", ErrBadExtents, r.W, r.H))
		}
		if r.K != 0 {
			return badRequest("k", fmt.Errorf("%w: K=%d on a %s request", ErrKindMismatch, r.K, r.Kind))
		}
		if r.NNSamples != 0 {
			return badRequest("nn_samples", fmt.Errorf("%w: NNSamples=%d on a %s request", ErrKindMismatch, r.NNSamples, r.Kind))
		}
	case KindNN:
		if r.Issuer == nil {
			return badRequest("issuer", ErrNilIssuer)
		}
		if r.W != 0 || r.H != 0 {
			return badRequest("extent", fmt.Errorf("%w: w=%g h=%g on an nn request", ErrKindMismatch, r.W, r.H))
		}
		if r.K <= 0 {
			return badRequest("k", fmt.Errorf("%w: K=%d", ErrBadNNK, r.K))
		}
		if r.NNSamples < 0 {
			return badRequest("nn_samples", fmt.Errorf("%w: %d", ErrBadNNSamples, r.NNSamples))
		}
		// A NaN or overflowing region makes the issuer pdf draw
		// non-finite positions, which no point is nearest to.
		if u0 := r.Issuer.Region(); math.IsNaN(u0.Width()+u0.Height()) || math.IsInf(u0.Width()+u0.Height(), 0) {
			return badRequest("issuer", fmt.Errorf("%w: region %v is not finite", geom.ErrInvalidRect, u0))
		}
	default:
		return badRequest("kind", fmt.Errorf("%w: %d", ErrBadKind, int(r.Kind)))
	}
	if r.Threshold < 0 || r.Threshold > 1 {
		return badRequest("threshold", fmt.Errorf("%w: %g", ErrBadThreshold, r.Threshold))
	}
	return nil
}

// Decomposable reports whether the request's answer is a per-object
// function of its table: every object's membership and probability
// depend on that object and the issuer alone, so the answer can be
// maintained object by object (Snapshot.EvaluateOnly). Enhanced-method
// range requests are; NN requests (win probabilities are coupled
// across candidates) and MethodBasic (all candidates share one sample
// stream) are not.
func (r Request) Decomposable() bool {
	return r.Kind != KindNN && r.Options.Method == MethodEnhanced
}

// ErrNotDecomposable is returned by Snapshot.EvaluateOnly for a
// request that is not Decomposable.
var ErrNotDecomposable = errors.New("core: request cannot be evaluated per object")

// GuardRegion returns the request's standing-query guard region: the
// spatial region outside which an update provably cannot change the
// request's answer. For range kinds it is the index probe region (see
// GuardRegion); for NN requests — which have no finite guard until an
// evaluation has measured the pruning distance tau — it is unbounded.
// Standing NN queries tighten it after every evaluation via
// GuardRegionTau(Result.Tau).
func (r Request) GuardRegion() (geom.Rect, error) {
	return r.GuardRegionTau(math.Inf(1))
}

// nnGuardSlack is the relative margin added to the NN guard ball so
// floating-point rounding in distance computations can never shrink
// the guard below the true tau-ball.
const nnGuardSlack = 1e-6

// GuardRegionTau is GuardRegion with a known NN pruning radius: for a
// KindNN request whose last evaluation reported Result.Tau = tau, the
// guard is the bounding box of the tau-ball around the issuer region,
// widened by a relative slack margin. The ball is provably sufficient:
// tau is the smallest maximum distance any point has to U0, so the
// point attaining it lies within tau of U0 (inside the ball), and a
// point entirely outside the ball has MinDist > tau ≥ its possible
// contribution — it can neither shrink tau nor join the candidate set.
// An update whose old and new rectangles both avoid the guard
// therefore cannot change the NN answer. Updates touching the guard
// may shrink tau, so the caller must re-evaluate and recompute the
// guard from the fresh Result.Tau (internal/monitor does exactly
// this). A non-finite or negative tau — no evaluation yet, or an
// empty database — yields the unbounded guard; range kinds ignore tau
// entirely.
func (r Request) GuardRegionTau(tau float64) (geom.Rect, error) {
	if err := r.Validate(); err != nil {
		return geom.Rect{}, err
	}
	if r.Kind == KindNN {
		if !math.IsInf(tau, 0) && tau >= 0 {
			pad := tau * (1 + nnGuardSlack)
			return r.Issuer.Region().Expand(pad, pad), nil
		}
		return geom.Rect{
			Lo: geom.Pt(-math.MaxFloat64, -math.MaxFloat64),
			Hi: geom.Pt(math.MaxFloat64, math.MaxFloat64),
		}, nil
	}
	return GuardRegion(r.query(), r.Options)
}

// Response is one evaluation outcome: the matches and cost, plus what
// was evaluated and against which engine version.
type Response struct {
	Result
	// Kind echoes the request kind.
	Kind Kind
	// Version is the engine version the evaluation observed — the
	// MVCC snapshot every candidate and index node was read from.
	Version uint64
}

// seededOptions returns the request's options with a non-zero Seed
// replacing the sampling source, so the request is self-deterministic
// regardless of which worker or process runs it.
func (r Request) seededOptions() EvalOptions {
	opts := r.Options
	if r.Seed != 0 {
		opts.Rng = newSeededRand(r.Seed)
		opts.Object.Rng = opts.Rng
	}
	return opts
}

// evaluateRequest validates and dispatches one request against this
// state, under its seededOptions.
//
// A non-nil only restricts a Decomposable request to those ids (see
// Snapshot.EvaluateOnly); such partial evaluations stay out of the
// per-kind evaluation metrics, which describe whole answers.
func (st *engineState) evaluateRequest(ctx context.Context, req Request, only []uncertain.ID) (Response, error) {
	if err := req.Validate(); err != nil {
		return Response{}, err
	}
	if only != nil && !req.Decomposable() {
		return Response{}, ErrNotDecomposable
	}
	opts := req.seededOptions()
	resp := Response{Kind: req.Kind, Version: st.version}
	var err error
	switch req.Kind {
	case KindPoints:
		resp.Result, err = st.evaluatePoints(ctx, req.query(), opts, only)
	case KindUncertain:
		resp.Result, err = st.evaluateUncertain(ctx, req.query(), opts, only)
	case KindNN:
		resp.Result, err = st.evaluateNN(ctx, req, opts)
	}
	if only == nil {
		st.met.observe(req.Kind, resp, err)
	}
	if err != nil {
		return Response{}, err
	}
	return resp, nil
}

// Evaluate runs one request against the snapshot. This is the single
// evaluation entry point: every query kind — range over points or
// uncertain objects, nearest neighbor — flows through it, against the
// snapshot's pinned immutable state, so concurrent ingestion can
// never tear an answer. ctx bounds the evaluation together with
// req.Options.Timeout (whichever expires first); cancellation is
// observed at candidate granularity. Malformed requests return a
// typed *RequestError.
func (s *Snapshot) Evaluate(ctx context.Context, req Request) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := obs.TraceFrom(ctx).StartSpan("pin")
	st, err := s.acquireUse()
	sp.End()
	if err != nil {
		return Response{}, err
	}
	defer s.e.releaseState(st)
	return st.evaluateRequest(ctx, req, nil)
}

// EvaluateOnly evaluates a Decomposable request restricted to the given
// object ids (distinct; of the request's table): the response lists
// exactly those of them that qualify, each with the probability — bit
// for bit — that Evaluate reports for it on this snapshot. It runs the
// per-candidate body of the full path (search-region and index-bound
// admission, p-bound pruning, refinement on the sample stream keyed
// by the object id) over the ids alone, without probing the index, so
// its cost scales with len(ids), not with the answer; Cost counts only
// that work and NodeAccesses is 0. An id absent from the snapshot
// simply does not qualify. Options.MaxSamples bounds the samples this
// call draws. This is the primitive the continuous-query monitor
// maintains standing range queries with: after an update batch only
// the moved objects can have changed, so only they are re-qualified.
// A request that is not Decomposable returns ErrNotDecomposable.
func (s *Snapshot) EvaluateOnly(ctx context.Context, req Request, ids []uncertain.ID) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st, err := s.acquireUse()
	if err != nil {
		return Response{}, err
	}
	defer s.e.releaseState(st)
	if ids == nil {
		ids = []uncertain.ID{} // nil means "unrestricted" below; no ids means an empty answer
	}
	return st.evaluateRequest(ctx, req, ids)
}

// Evaluate runs one request against the engine's current state: it
// pins the newest published snapshot, evaluates, and releases the pin
// — the one-shot form of Snapshot.Evaluate. Use a Snapshot directly
// to hold one version across several evaluations.
func (e *Engine) Evaluate(ctx context.Context, req Request) (Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := obs.TraceFrom(ctx).StartSpan("pin")
	st := e.acquireState()
	sp.End()
	defer e.releaseState(st)
	return st.evaluateRequest(ctx, req, nil)
}

// AllOptions tunes one EvaluateAll fan-out.
type AllOptions struct {
	// Workers is the number of requests evaluated concurrently (0 or 1
	// = serial, on the calling goroutine). Each request refines on the
	// goroutine that evaluates it.
	Workers int
	// Seed derives the sampling seed for requests whose own Seed is
	// zero: request i receives mcbound.DeriveSeed(Seed, i), so every request
	// has an independent deterministic stream no matter which worker
	// serves it. Requests with a non-zero Seed keep it. Options.Rng is
	// never consulted inside a fan-out (a shared source across
	// goroutines would destroy reproducibility).
	Seed int64
}

// AllHandler receives one finished request of an EvaluateAll fan-out:
// its index in the input slice and its response or error. Calls are
// serialized by the engine (the handler needs no locking of its own)
// but arrive in completion order, not input order.
type AllHandler func(i int, resp Response, err error)

// EvaluateAll evaluates many requests against the snapshot,
// opts.Workers at a time, streaming each response to fn as it
// finishes — the one fan-out form every batch, stream, and standing
// workload builds on. Every request observes the snapshot's single
// pinned version. Results are deterministic per request (seeded via
// Request.Seed or derived from AllOptions.Seed and the index) and
// independent of the worker count and scheduling; only delivery order
// varies. ctx cancels the whole fan-out: undispatched requests are
// skipped (fn is never called for them), in-flight ones return the
// context's error, and EvaluateAll returns ctx.Err(). A nil fn
// discards responses (warm-up, load generation).
func (s *Snapshot) EvaluateAll(ctx context.Context, reqs []Request, opts AllOptions, fn AllHandler) error {
	st, err := s.acquireUse()
	if err != nil {
		return err
	}
	defer s.e.releaseState(st)
	return st.evaluateAll(ctx, reqs, opts, fn)
}

// EvaluateAll evaluates many requests against the engine's current
// state: the whole fan-out runs against one pinned snapshot, so every
// request observes the same version no matter how many updates commit
// while it drains. See Snapshot.EvaluateAll.
func (e *Engine) EvaluateAll(ctx context.Context, reqs []Request, opts AllOptions, fn AllHandler) error {
	st := e.acquireState()
	defer e.releaseState(st)
	return st.evaluateAll(ctx, reqs, opts, fn)
}

// evaluateAll dispatches the fan-out over a worker pool (opts.Workers
// <= 1 runs on the calling goroutine) and hands each finished request
// to fn through a serializing mutex.
func (st *engineState) evaluateAll(ctx context.Context, reqs []Request, opts AllOptions, fn AllHandler) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var mu sync.Mutex
	deliver := func(i int, resp Response, err error) {
		if fn == nil {
			return
		}
		mu.Lock()
		fn(i, resp, err)
		mu.Unlock()
	}
	eval := func(i int) {
		req := reqs[i]
		if req.Seed == 0 {
			req.Seed = mcbound.DeriveSeed(opts.Seed, i)
		}
		resp, err := st.evaluateRequest(ctx, req, nil)
		deliver(i, resp, err)
	}
	if opts.Workers <= 1 {
		for i := range reqs {
			if canceled(ctx) != nil {
				break
			}
			eval(i)
		}
		return ctx.Err()
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	workers := opts.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || canceled(ctx) != nil {
					return
				}
				eval(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
