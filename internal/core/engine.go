package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/index/pti"
	"repro/internal/index/rtree"
	"repro/internal/mcbound"
	"repro/internal/obs"
	"repro/internal/uncertain"
)

// EngineOptions configures engine construction.
type EngineOptions struct {
	// CatalogProbs are the shared U-catalog probability values used by
	// the PTI; every uncertain object must carry a catalog containing
	// them. Nil selects the paper's ten values 0, 0.1, ..., 0.9.
	CatalogProbs []float64
	// PointNodeStore and UncertainNodeStore supply index storage
	// (nil = in-memory). Use rtree.NewPagedNodeStore for disk-regime
	// I/O simulation.
	PointNodeStore     rtree.NodeStore
	UncertainNodeStore rtree.NodeStore
	// MaxSnapshotAge, when positive, bounds how long an open Snapshot
	// may pin its state: snapshots older than the limit are
	// force-closed by the engine (counted in
	// SnapshotStats.ForcedCloses), so a leaked Snapshot.Close cannot
	// wedge superseded-node reclamation indefinitely. In-flight
	// evaluations hold their own pins and are never interrupted; only
	// new evaluations through the snapshot are refused. Zero means no
	// bound.
	MaxSnapshotAge time.Duration

	// Durability knobs, honored by Open (NewEngine builds ephemeral
	// engines and ignores them). FsyncPolicy selects the WAL
	// group-commit policy (default FsyncInterval); FsyncInterval is
	// the flush period for FsyncInterval (default 50ms);
	// CheckpointEvery, when positive, checkpoints automatically after
	// that many committed update batches.
	FsyncPolicy     FsyncPolicy
	FsyncInterval   time.Duration
	CheckpointEvery int
}

// Engine holds a database of point objects and uncertain objects with
// their spatial indexes, and evaluates imprecise location-dependent
// queries against them. Construction bulk-loads both indexes.
//
// Concurrency — MVCC snapshot isolation: the engine's state (object
// tables, index roots, version epoch) is an immutable value swapped
// atomically by writers. Every evaluation pins the state current when
// it starts and runs entirely against that snapshot without holding
// any lock — a long Monte-Carlo refinement never delays ingestion.
// Conversely, writers never wait for readers. ApplyUpdates (and
// ApplyUpdatesSnapshot) is the one write path: every mutation is a
// batch whose UpdateReport lists its Changes, which is what a
// continuous-query monitor re-evaluates from. Writers take turns under
// writeMu: each
// builds the successor state copy-on-write against the current one
// (path-copied index nodes — each node copied at most once per batch,
// however many of the batch's updates touch it — and bucket-copied
// object tables, with the bucket spine doubling when inserts outgrow
// it), writes its new nodes through to the stores, and swaps the state
// pointer. A served engine has one writer at a time anyway — its
// batches arrive through the monitor's ingest lock — so the lock costs
// nothing there.
//
// A query therefore observes either all of an update batch or none of
// it — specifically, the newest state published before the evaluation
// began; use Snapshot to hold one version across several evaluations.
// Superseded index nodes are reclaimed once the last evaluation
// pinning them finishes (see SnapshotStats); EngineOptions.
// MaxSnapshotAge bounds how long a leaked Snapshot can stall that.
//
// The query surface is the Request model: Evaluate(ctx, Request)
// answers any kind (range over uncertain objects or points, nearest
// neighbor) and EvaluateAll is the one fan-out form; both are defined
// on Snapshot with thin Engine wrappers, so every evaluation flows
// through the single pinned-snapshot code path.
//
// Every Response carries its own exact per-request Cost: node
// accesses are counted per search call, not in shared tree state, so
// concurrent requests do not perturb each other's counters. Any
// number of goroutines may Evaluate simultaneously — over in-memory
// or paged node stores (the buffer pool is internally
// synchronized) — and may share one Request value: a Request is plain
// data, and every evaluation builds its generators from Request.Seed
// (EvaluateAll derives an independent seed per request
// automatically). Each request refines on the goroutine that
// evaluates it; parallelism comes from concurrent requests.
//
// Determinism: for a fixed engine version and request (Seed
// included), evaluation is bit-identical whichever candidates it
// visits and in which order: range refinement derives one sample
// stream per candidate object, keyed by object id (see
// refineSurvivors), and NN refinement derives one shared position
// stream keyed by sample block (see nn.Refine).
type Engine struct {
	// writeMu serializes writers; readers never take it.
	writeMu sync.Mutex
	// state is the current published version, swapped under pinMu.
	state atomic.Pointer[engineState]

	// pinMu guards the pin table, graveyard, and snapshot registry —
	// and brackets every state load-and-pin and every publish, so a
	// state can never be reclaimed between a reader loading and
	// pinning it.
	pinMu     sync.Mutex
	pins      map[uint64]*pinEntry
	graveyard []retiredBatch

	// snaps registers every open Snapshot with its creation time, so
	// the age-bound sweep can force-close leaked ones; maxSnapAge <= 0
	// disables the sweep, forcedCloses counts its victims.
	snaps        map[*Snapshot]time.Time
	maxSnapAge   time.Duration
	forcedCloses uint64

	// met is the engine's always-on telemetry, shared with every
	// engineState (see engineMetrics).
	met *engineMetrics

	// dur is the engine's durability attachment (WAL + checkpoints);
	// nil for ephemeral engines built with NewEngine. See Open.
	dur *durability
}

// NewEngine builds an engine over the given datasets. Point object IDs
// and uncertain object IDs each must be unique within their class, and
// every point's location finite.
func NewEngine(points []uncertain.PointObject, objects []*uncertain.Object, opts EngineOptions) (*Engine, error) {
	if opts.CatalogProbs == nil {
		opts.CatalogProbs = uncertain.PaperCatalogProbs()
	}
	if opts.PointNodeStore == nil {
		opts.PointNodeStore = rtree.NewMemNodeStore()
	}
	if opts.UncertainNodeStore == nil {
		opts.UncertainNodeStore = rtree.NewMemNodeStore()
	}

	st := &engineState{
		seq:         1,
		publishedAt: time.Now(),
		points:      newCowTable[uncertain.PointObject](len(points)),
		objects:     newCowTable[geom.Rect](len(objects)),
		irregular:   newCowTable[*uncertain.Object](0),
		probs:       opts.CatalogProbs,
		met:         newEngineMetrics(),
	}

	items := make([]rtree.Item, len(points))
	for i, p := range points {
		if err := checkPointLoc(p); err != nil {
			return nil, err
		}
		if _, dup := st.points.Get(p.ID); dup {
			return nil, fmt.Errorf("core: duplicate point object id %d", p.ID)
		}
		st.points.put(p.ID, p)
		items[i] = rtree.Item{Rect: geom.RectAt(p.Loc), Ref: rtree.Ref(p.ID)}
	}
	var err error
	st.pointIdx, err = rtree.BulkLoad(opts.PointNodeStore, rtree.Config{}, items)
	if err != nil {
		return nil, fmt.Errorf("core: building point index: %w", err)
	}

	for _, o := range objects {
		if _, dup := st.objects.Get(o.ID); dup {
			return nil, fmt.Errorf("core: duplicate uncertain object id %d", o.ID)
		}
		st.objects.put(o.ID, o.Region())
	}
	st.uncIdx, err = pti.BulkLoad(opts.UncertainNodeStore, opts.CatalogProbs, objects)
	if err != nil {
		return nil, fmt.Errorf("core: building PTI: %w", err)
	}
	for _, o := range objects {
		if !st.uncIdx.IsLeafRecord(o) {
			st.irregular.put(o.ID, o)
		}
	}

	return newEngineFromState(st, opts.MaxSnapshotAge), nil
}

// newEngineFromState wraps a sealed state — freshly bulk-loaded or
// restored from a checkpoint — in an engine.
func newEngineFromState(st *engineState, maxSnapAge time.Duration) *Engine {
	e := &Engine{
		pins:       make(map[uint64]*pinEntry),
		snaps:      make(map[*Snapshot]time.Time),
		maxSnapAge: maxSnapAge,
		met:        st.met,
	}
	e.state.Store(st)
	return e
}

// NumPoints returns the number of point objects.
func (e *Engine) NumPoints() int { return e.state.Load().points.Len() }

// NumUncertain returns the number of uncertain objects.
func (e *Engine) NumUncertain() int { return e.state.Load().objects.Len() }

// Version returns the engine's mutation epoch: it advances once per
// committed mutation (or ApplyUpdates batch), never otherwise. Two
// evaluations bracketed by equal versions saw identical data.
func (e *Engine) Version() uint64 { return e.state.Load().version }

// Point returns the point object with the given id (in the current
// version).
func (e *Engine) Point(id uncertain.ID) (uncertain.PointObject, bool) {
	return e.state.Load().points.Get(id)
}

// Object returns the uncertain object with the given id (in the
// current version). A leaf record's object is rebuilt from its
// rectangle: equal to the one inserted, not the same pointer.
func (e *Engine) Object(id uncertain.ID) (*uncertain.Object, bool) {
	return e.state.Load().object(id)
}

// PointIndex exposes the current version's point R-tree (for
// statistics). Walking it is only safe while no mutation commits; pin
// a Snapshot to hold a version across mutations.
func (e *Engine) PointIndex() *rtree.Tree { return e.state.Load().pointIdx }

// UncertainIndex exposes the current version's PTI (for statistics).
// Walking it is only safe while no mutation commits; pin a Snapshot
// to hold a version across mutations.
func (e *Engine) UncertainIndex() *pti.Index { return e.state.Load().uncIdx }

// EvalOptions tunes one query evaluation.
type EvalOptions struct {
	// Method selects the enhanced (paper) or basic (§3.3) evaluator.
	Method Method
	// BasicSamples is the issuer-sample count for MethodBasic
	// (default 400).
	BasicSamples int
	// PointMCSamples > 0 makes the enhanced point evaluator refine
	// candidates by Monte-Carlo instead of the closed form — the
	// paper's §6.2 regime for non-uniform pdfs ("at least 200 samples
	// for evaluating a C-IPQ"). Filtering still uses the Minkowski or
	// Qp-expanded query.
	PointMCSamples int
	// Object tunes uncertain-object refinement (Monte-Carlo forcing,
	// sample count, early stops).
	Object ObjectEvalConfig
	// DisablePExpansion probes the index with the full Minkowski sum
	// even for constrained queries — the paper's baseline curve in
	// Figures 11–13.
	DisablePExpansion bool
	// DisableIndexPruning turns off PTI node-level bound pruning,
	// isolating the object-level strategies (ablation).
	DisableIndexPruning bool
	// Strategies toggles the object-level C-IUQ pruning strategies.
	Strategies StrategySet
	// Timeout bounds one query's evaluation wall clock (0 = none).
	// It composes with any deadline already on the caller's context
	// (the ctx passed to Evaluate); cancellation is checked at
	// candidate granularity, and an expired evaluation returns
	// context.DeadlineExceeded with no result. Inside batch serving
	// this is the per-query deadline.
	Timeout time.Duration
	// MaxSamples bounds one query's total Monte-Carlo samples across
	// all candidates (0 = unlimited). A query whose refinement would
	// exceed it stops drawing and returns ErrSampleBudget with no
	// result — the same shape as a deadline expiry, so budget and
	// Timeout compose: whichever trips first ends the query, and in
	// batch serving the rest of the batch continues. Whether a given
	// query exceeds the budget is deterministic (per-candidate sample
	// streams make the total independent of refinement order), so a
	// query either always fits or always errors for a fixed engine,
	// options, and seed. Adaptive early termination (see
	// ObjectEvalConfig.Adaptive) stretches the budget by spending
	// fewer samples on clear-cut candidates.
	MaxSamples int64
}

func (o EvalOptions) withDefaults() EvalOptions {
	if o.BasicSamples <= 0 {
		o.BasicSamples = 400
	}
	o.Object = o.Object.withDefaults()
	return o
}

// evalContext derives the evaluation context: the caller's ctx (nil
// means context.Background) bounded by opts.Timeout when set. The
// returned cancel must always be called.
func (o EvalOptions) evalContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Timeout > 0 {
		return context.WithTimeout(ctx, o.Timeout)
	}
	return ctx, func() {}
}

// stopThreshold is the threshold the sampling refiners may terminate
// early against: the query's own, or 0 (never stop early) when the
// query is unconstrained or Object.Adaptive turns early termination
// off.
func stopThreshold(q Query, opts EvalOptions) float64 {
	if opts.Object.Adaptive == AdaptiveAuto {
		return q.Threshold
	}
	return 0
}

// candidateScan surfaces one evaluation's candidates — id and table
// row — to visit, in an order that is a function of the state alone,
// until visit returns false; it reports the index nodes it read.
type candidateScan[T any] func(visit func(uncertain.ID, T) bool) (nodeAccesses int64, err error)

// probePoints scans the point index over region. Each leaf entry is
// the point record itself (see engineState), so the table is not read.
func (st *engineState) probePoints(region geom.Rect) candidateScan[uncertain.PointObject] {
	return func(visit func(uncertain.ID, uncertain.PointObject) bool) (int64, error) {
		return st.pointIdx.SearchCounted(region, nil, func(en rtree.Entry, _ []float64) bool {
			id := uncertain.ID(en.Ref)
			return visit(id, uncertain.PointObject{ID: id, Loc: en.Rect.Lo})
		})
	}
}

// listPoints takes exactly the given ids from the point table and
// admits the ones a probe of region would have reached — the
// Snapshot.EvaluateOnly candidate source. It reads no index node.
func (st *engineState) listPoints(region geom.Rect, ids []uncertain.ID) candidateScan[uncertain.PointObject] {
	return func(visit func(uncertain.ID, uncertain.PointObject) bool) (int64, error) {
		for _, id := range ids {
			p, ok := st.points.Get(id)
			if ok && region.Intersects(geom.RectAt(p.Loc)) && !visit(id, p) {
				break
			}
		}
		return 0, nil
	}
}

// probeObjects scans the uncertain-object index over region, handing
// each candidate's object — a leaf record's rebuilt from its entry.
func (st *engineState) probeObjects(region geom.Rect) candidateScan[*uncertain.Object] {
	return func(visit func(uncertain.ID, *uncertain.Object) bool) (int64, error) {
		return st.uncIdx.RangeLeavesCounted(region, func(e rtree.Entry, _ []float64) bool {
			id := uncertain.ID(e.Ref)
			return visit(id, st.objectAt(id, e.Rect))
		})
	}
}

// overBudget reports whether used samples exceed a MaxSamples budget
// (0 = unlimited).
func overBudget(used, budget int64) bool { return budget > 0 && used > budget }

// scanQualifyAccept is the interleaved range evaluator: one pass over
// the candidate source, each candidate qualified and tested against the
// threshold as it is surfaced. qualify returns a candidate's
// probability, the Monte-Carlo samples it drew (0 for a closed form)
// and whether a bound stopped its sampling early. The enhanced point
// path and both MethodBasic paths (the paper's Figure 8 reference) are
// this function with a different source and qualifier; every candidate
// runs the same body whichever source surfaced it, so a restricted
// answer is the full answer's restriction bit for bit. ctx must already
// carry any Timeout bound.
//
// Filter and refinement interleave inside the one scan, so it records a
// single "scan" span rather than the filter/refine/merge decomposition
// of the uncertain-enhanced and NN paths.
func scanQualifyAccept[T any](ctx context.Context, threshold float64, maxSamples int64, scan candidateScan[T], qualify func(T) (float64, int, bool)) (Result, error) {
	start := time.Now()
	var res Result
	sp := obs.TraceFrom(ctx).StartSpan("scan")
	na, err := scan(func(id uncertain.ID, c T) bool {
		// SamplesUsed only grows, so the budget check after the scan
		// re-detects this early stop.
		if canceled(ctx) != nil || overBudget(res.Cost.SamplesUsed, maxSamples) {
			return false
		}
		res.Cost.Candidates++
		res.Cost.Refined++
		prob, n, early := qualify(c)
		res.Cost.SamplesUsed += int64(n)
		if early {
			res.Cost.EarlyStopped++
		}
		if accept(prob, threshold) {
			res.Matches = append(res.Matches, Match{ID: id, P: prob})
		} else {
			res.Cost.BelowThreshold++
		}
		return true
	})
	if err != nil {
		return Result{}, err
	}
	if err := canceled(ctx); err != nil {
		return Result{}, err
	}
	if overBudget(res.Cost.SamplesUsed, maxSamples) {
		return Result{}, ErrSampleBudget
	}
	res.Cost.NodeAccesses = na
	sp.AddNodes(na)
	sp.AddSamples(res.Cost.SamplesUsed)
	sp.SetItems(res.Cost.Candidates)
	sp.End()
	SortMatches(res.Matches)
	res.Cost.Duration = time.Since(start)
	return res, nil
}

// evaluatePoints applies defaults and deadline, and runs a validated
// point-database request against this state: the method picks the
// probe region and the per-candidate qualifier, scanQualifyAccept does
// the rest. A nil only draws the candidates from the index; a non-nil
// only (Snapshot.EvaluateOnly, enhanced method) takes exactly those
// ids.
func (st *engineState) evaluatePoints(ctx context.Context, req Request, only []uncertain.ID) (Result, error) {
	q := req.query()
	opts := req.Options.withDefaults()
	ctx, cancel := opts.evalContext(ctx)
	defer cancel()

	iss := q.Issuer.PDF
	stopQP := stopThreshold(q, opts)
	var region geom.Rect
	var qualify func(uncertain.PointObject) (float64, int, bool)
	switch opts.Method {
	case MethodEnhanced:
		// Filter with the Minkowski or Qp-expanded query; refine by the
		// duality closed form, or — PointMCSamples > 0, the §6.2 regime —
		// by sampling. Each candidate's stream comes from a source
		// derived from the request's parent draw and the candidate's
		// object id, as in refineSurvivors, so early termination on one
		// candidate cannot shift the samples any other candidate sees,
		// and the full-budget and adaptive runs of one stream agree on
		// every threshold decision (the certainty bound is exact).
		region = newQueryPlan(q, opts, false).searchReg
		if region.Empty() {
			return Result{}, nil
		}
		if opts.PointMCSamples > 0 {
			parent := parentDraw(req.seed())
			qualify = func(p uncertain.PointObject) (float64, int, bool) {
				rng := newRand(mcbound.DeriveSeed(parent, int(p.ID)))
				return pointQualificationMCThreshold(iss, p.Loc, q.W, q.H, stopQP, opts.PointMCSamples, rng)
			}
		} else {
			qualify = func(p uncertain.PointObject) (float64, int, bool) {
				return PointQualification(iss, p.Loc, q.W, q.H), 0, false
			}
		}
	case MethodBasic:
		// The basic method still needs a candidate set; without the
		// paper's observations the best available filter is the plain
		// Minkowski range (its absence would mean scanning the whole
		// database, making the baseline look arbitrarily bad). All
		// candidates share the request's one stream, in scan order.
		region = q.Expanded()
		rng := newRand(req.seed())
		qualify = func(p uncertain.PointObject) (float64, int, bool) {
			return pointQualificationMCThreshold(iss, p.Loc, q.W, q.H, stopQP, opts.BasicSamples, rng)
		}
	default:
		return Result{}, fmt.Errorf("%w: %v", ErrUnknownMethod, opts.Method)
	}
	scan := st.probePoints(region)
	if only != nil {
		scan = st.listPoints(region, only)
	}
	return scanQualifyAccept(ctx, q.Threshold, opts.MaxSamples, scan, qualify)
}

// evaluateUncertain applies defaults and deadline, and dispatches a
// validated uncertain-database request against this state: the
// enhanced filter → prune → refine → merge pipeline, or — MethodBasic —
// the interleaved scan over the plain Minkowski range with the §3.3
// issuer-sampling estimator as the qualifier (all candidates sharing
// the request's one stream, in scan order).
func (st *engineState) evaluateUncertain(ctx context.Context, req Request, only []uncertain.ID) (Result, error) {
	q := req.query()
	opts := req.Options.withDefaults()
	ctx, cancel := opts.evalContext(ctx)
	defer cancel()
	switch opts.Method {
	case MethodEnhanced:
		return st.evaluateUncertainEnhanced(ctx, q, opts, req.seed(), only)
	case MethodBasic:
		iss := q.Issuer.PDF
		stopQP := stopThreshold(q, opts)
		rng := newRand(req.seed())
		return scanQualifyAccept(ctx, q.Threshold, opts.MaxSamples, st.probeObjects(q.Expanded()),
			func(obj *uncertain.Object) (float64, int, bool) {
				return objectQualificationBasicThreshold(iss, obj.PDF, q.W, q.H, stopQP, opts.BasicSamples, rng)
			})
	default:
		return Result{}, fmt.Errorf("%w: %v", ErrUnknownMethod, opts.Method)
	}
}

// evaluateUncertainEnhanced is the single enhanced evaluation path:
// the index probe and object-level pruning run once, collecting
// survivors, which are refined over the prepared query plan (see
// refineSurvivors) and merged. On a threshold query whose candidates
// refine in closed form the filter is the larger part — range_ro's
// profile puts three quarters of the evaluation in it — so it reads
// only what the leaf entry holds wherever it can (see
// engineState.objects). ctx must already carry any opts.Timeout
// bound; seed is the request's sampling seed (see refineSurvivors).
//
// A nil only draws the candidates from the index probe; a non-nil only
// (Snapshot.EvaluateOnly) takes exactly those ids from the object table
// and admits the ones whose rectangle meets the probe's search region.
// Either way each candidate then takes the one leaf path: a leaf record
// is pruned, by the index's leaf test and the strategies, and refined
// from its rectangle, any other object through its irregular object.
// The index's tests are monotone from the root down (a node's rectangle
// and bound envelope contain those of every entry below it), so the
// listed ids the probe would have visited are exactly the ones the leaf
// test admits; pruning, refinement — each survivor on the sample stream
// keyed by its id — and merge are the same code, so the restricted
// answer is the full answer's restriction bit for bit.
func (st *engineState) evaluateUncertainEnhanced(ctx context.Context, q Query, opts EvalOptions, seed int64, only []uncertain.ID) (Result, error) {
	start := time.Now()
	var res Result
	tr := obs.TraceFrom(ctx)

	plan := newQueryPlan(q, opts, true)
	if plan.searchReg.Empty() {
		res.Cost.Duration = time.Since(start)
		return res, nil
	}
	sc := acquireScratch()
	defer releaseScratch(sc)

	// The filter span covers the index probe and the object-level
	// pruning strategies that run inside its visitor — the paper's
	// filter step, whose output is the survivor set refinement pays
	// for.
	spF := tr.StartSpan("filter")
	survivors := sc.cands[:0]
	consider := func(c candidate, leafTested bool) bool {
		if canceled(ctx) != nil {
			return false
		}
		res.Cost.Candidates++
		switch st.pruneCandidate(&plan, &c, leafTested, opts.Strategies) {
		case PrunedEmptyOverlap:
			// Zero probability; simply not a match.
		case PrunedStrategy1:
			res.Cost.PrunedStrategy1++
		case PrunedStrategy2:
			res.Cost.PrunedStrategy2++
		case PrunedStrategy3:
			res.Cost.PrunedStrategy3++
		default:
			survivors = append(survivors, c)
		}
		return true
	}

	// The index's leaf test (pruning Strategy 1 at the leaf) on the
	// M-bound row — computed from a leaf record's rectangle, read from
	// any other object's catalog (the row its entry stores) — then the
	// strategies. A leaf record the test admitted skips what it settled
	// (see pruneCandidate).
	indexPruning := q.Threshold > 0 && !opts.DisableIndexPruning
	_, m, rowOK := st.uncIdx.MRow(q.Threshold)
	rowOK = rowOK && indexPruning
	admit := func(c candidate) bool {
		if c.obj != nil {
			if rowOK {
				if b, _ := c.obj.Catalog.MaxLE(m); pti.BoundPrunes(c.region, b, plan.expanded) {
					return true
				}
			}
			return consider(c, false)
		}
		if rowOK && pti.BoundPrunes(c.region, uncertain.UniformBound(c.region, m), plan.expanded) {
			return true
		}
		return consider(c, rowOK)
	}
	var na int64
	var err error
	if only != nil {
		for _, id := range only {
			region, ok := st.objects.Get(id)
			if !ok || !plan.searchReg.Intersects(region) {
				continue
			}
			if !admit(candidate{id: id, region: region, obj: st.irregularObject(id)}) {
				break
			}
		}
	} else {
		visit := func(e rtree.Entry, _ []float64) bool {
			id := uncertain.ID(e.Ref)
			return admit(candidate{id: id, region: e.Rect, obj: st.irregularObject(id)})
		}
		if indexPruning {
			na, err = st.uncIdx.ThresholdLeavesCounted(plan.searchReg, plan.expanded, q.Threshold, visit)
		} else {
			na, err = st.uncIdx.RangeLeavesCounted(plan.searchReg, visit)
		}
	}
	// The pooled buffer keeps what it grew to, and holds no object
	// past the query.
	defer func() { clear(survivors); sc.cands = survivors[:0] }()
	if err != nil {
		return Result{}, err
	}
	if err := canceled(ctx); err != nil {
		return Result{}, err
	}
	res.Cost.NodeAccesses = na
	res.Cost.Refined = len(survivors)
	spF.AddNodes(na)
	spF.SetItems(len(survivors))
	if spF.Active() {
		spF.SetNote(fmt.Sprintf("candidates=%d pruned=%d", res.Cost.Candidates,
			res.Cost.PrunedStrategy1+res.Cost.PrunedStrategy2+res.Cost.PrunedStrategy3))
	}
	spF.End()

	spR := tr.StartSpan("refine")
	rst, err := st.refineSurvivors(ctx, plan, survivors, opts, seed, sc)
	if err != nil {
		return Result{}, err
	}
	res.Cost.SamplesUsed = rst.samples
	res.Cost.EarlyStopped = rst.earlyStopped
	spR.AddSamples(rst.samples)
	if spR.Active() {
		spR.SetNote(fmt.Sprintf("early_stopped=%d", rst.earlyStopped))
	}
	spR.End()

	spM := tr.StartSpan("merge")
	for _, c := range survivors {
		if accept(c.p, q.Threshold) {
			res.Matches = append(res.Matches, Match{ID: c.id, P: c.p})
		} else {
			res.Cost.BelowThreshold++
		}
	}
	SortMatches(res.Matches)
	spM.SetItems(len(res.Matches))
	spM.End()
	res.Cost.Duration = time.Since(start)
	return res, nil
}

// accept applies the result predicate: non-zero probability for
// unconstrained queries (Definitions 3–4), >= threshold for
// constrained ones (Definitions 5–6).
func accept(p, threshold float64) bool {
	if threshold > 0 {
		return p >= threshold
	}
	return p > 0
}

// SortMatches orders matches by descending probability, then id — the
// engine's canonical result order, shared by every serving layer so
// that deterministic comparisons across them stay meaningful.
// slices.SortFunc with a package-level comparator avoids the per-call
// closure and interface allocations of sort.Slice in the hot result
// path.
func SortMatches(ms []Match) {
	slices.SortFunc(ms, CompareMatches)
}

// CompareMatches is the canonical result order as a comparator, for a
// layer that merges already-sorted lists instead of re-sorting them.
func CompareMatches(a, b Match) int {
	switch {
	case a.P > b.P:
		return -1
	case a.P < b.P:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	default:
		return 0
	}
}

// parentDraw is the first value rand.New(rand.NewSource(seed)).Int63()
// draws, computed without seeding a generator: an evaluation's parent
// seed, from which every per-candidate stream (mcbound.DeriveSeed) and
// the NN position stream derive.
func parentDraw(seed int64) int64 { return int64(mcbound.FirstUint64(seed) &^ (1 << 63)) }

// newRand returns math/rand's generator for seed over mcbound.Source:
// the stream rand.New(rand.NewSource(seed)) draws, at a quarter of its
// seeding cost.
func newRand(seed int64) *rand.Rand { return rand.New(mcbound.NewSource(seed)) }
