package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/uncertain"
)

// This file evaluates KindNN requests — the paper's §7 imprecise
// nearest-neighbor extension — as a first-class engine query, in two
// stages. collectNN takes the candidate set from branch-and-bound over
// the pinned snapshot's point R-tree (node accesses recorded in Cost,
// like every other kind); refineNNCandidates runs package nn's
// shared-sample-stream tally kernel — a candidate grid resolves each
// sample's nearest candidate, so the work is O(candidates + samples)
// expected and the product only in the clustered worst case; estimates
// sum to exactly 1, with adaptive early termination against Threshold,
// and a threshold request's last round resolves only the samples that
// can lift some candidate to Threshold — so results are a pure function
// of the candidate set and the seed, and stable under concurrent
// ingestion. evaluateNN composes the two on one state; nncandidates.go
// exposes each on its own so a fleet router can run the first on every
// shard and the second once.

// nnTau computes tau, the smallest maximum distance any indexed point
// has to u0, by best-first branch-and-bound: interior entries are
// bounded below by max over u0's corners of MinDist(corner, node
// rect) — every point inside the node is at least that far from some
// corner, and the point-to-rect maximum is always attained at a
// corner — so the first leaf popped is the global minimum. Returns
// +Inf over an empty index.
func nnTau(idx *rtree.Tree, u0 geom.Rect) (float64, int64, error) {
	corners := u0.Corners()
	prio := func(e rtree.Entry, leaf bool) float64 {
		if leaf {
			// Points are stored as degenerate rectangles: Lo is the
			// location.
			return u0.MaxDist(e.Rect.Lo)
		}
		var bound float64
		for _, c := range corners {
			if d := e.Rect.MinDist(c); d > bound {
				bound = d
			}
		}
		return bound
	}
	tau := math.Inf(1)
	na, err := idx.BestFirstCounted(prio, math.Inf(1), func(_ rtree.Entry, p float64) (float64, bool) {
		tau = p
		return p, false // first leaf in ascending order is the minimum
	})
	return tau, na, err
}

// collectNN is the NN candidate-pruning stage, shared by the
// single-engine evaluation and the per-shard half of the router's
// protocol: tau bounds the distance within which the nearest neighbor
// must lie; the candidates are exactly the points whose MinDist to U0
// does not exceed min(tau, o.TauBound), found by a range probe of the
// expanded region (its bounding box, with an exact MinDist filter per
// entry) and returned sorted by id. visited counts the entries the
// probe surfaced before that filter — a single-engine evaluation's
// Cost.Candidates. The filter span covers both the tau branch-and-bound
// and the probe. An empty point database yields tau = +Inf and no
// candidates — not an error.
func (st *engineState) collectNN(ctx context.Context, u0 geom.Rect, o NNCandidateOptions) (set NNCandidateSet, visited int, err error) {
	set = NNCandidateSet{Tau: math.Inf(1), Version: st.version}
	if st.points.Len() == 0 {
		return set, 0, nil
	}
	sp := obs.TraceFrom(ctx).StartSpan("filter")
	set.Tau, set.NodeAccesses, err = nnTau(st.pointIdx, u0)
	if err == nil {
		err = canceled(ctx)
	}
	if err != nil {
		return NNCandidateSet{}, 0, err
	}

	// A router that has already merged a tighter global tau caps the
	// collection radius with it.
	radius := o.Radius(set.Tau)
	band := newRadiusBand(radius)
	sc := nnScratchPool.Get().(*nnScratch)
	defer putNNScratch(sc)
	cands := sc.cands[:0]
	na, err := st.pointIdx.SearchCounted(u0.Expand(radius, radius), nil, func(en rtree.Entry, _ []float64) bool {
		if canceled(ctx) != nil {
			return false
		}
		visited++
		// The leaf entry is the point record (see engineState): Ref is
		// the id and Rect.Lo the location.
		loc := en.Rect.Lo
		if band.beyond(u0, loc) {
			return true
		}
		if o.Limit > 0 && len(cands) >= o.Limit {
			set.Truncated = true
			return false
		}
		cands = append(cands, NNCandidate{ID: uncertain.ID(en.Ref), Loc: [2]float64{loc.X, loc.Y}})
		return true
	})
	if err == nil {
		err = canceled(ctx)
	}
	if err != nil {
		return NNCandidateSet{}, 0, err
	}
	set.NodeAccesses += na
	sc.cands = cands
	if len(cands) > 0 {
		if cap(sc.tmp) < len(cands) {
			sc.tmp = make([]NNCandidate, cap(cands))
		}
		set.Candidates = slices.Clone(sortByID(cands, sc.tmp))
	}
	sp.AddNodes(set.NodeAccesses)
	sp.SetItems(len(set.Candidates))
	if sp.Active() {
		sp.SetNote(fmt.Sprintf("tau=%.4g candidates=%d", set.Tau, visited))
	}
	sp.End()
	return set, visited, nil
}

// radiusBand decides MinDist(u0, loc) > radius, as that comparison
// does, mostly from the squared distance: a squared MinDist above hi2
// is beyond radius and one below lo2 within it, and only one in
// between (or a NaN) takes the hypotenuse. The rounded squares are
// within 3 ulps of dx² + dy² and radius², and math.Hypot within 5 of
// its true value, so a relative band of 2^-40 around radius² — far
// wider than those errors — leaves every decision as MinDist makes
// it. Outside [2^-500, 2^500] a square could overflow or underflow, so
// such a radius (and NaN) gets the empty band: every entry takes the
// exact test.
type radiusBand struct {
	radius, lo2, hi2 float64
}

func newRadiusBand(radius float64) radiusBand {
	if !(radius >= 0x1p-500 && radius <= 0x1p500) {
		return radiusBand{radius: radius, lo2: -1, hi2: math.Inf(1)}
	}
	r2 := radius * radius
	return radiusBand{radius: radius, lo2: r2 * (1 - 0x1p-40), hi2: r2 * (1 + 0x1p-40)}
}

// beyond reports u0.MinDist(loc) > radius. The gaps are MinDist's, so
// a NaN one (which MinDist may still turn into +Inf) leaves d2 NaN and
// takes the exact test.
func (b radiusBand) beyond(u0 geom.Rect, loc geom.Point) bool {
	dx := max(u0.Lo.X-loc.X, loc.X-u0.Hi.X, 0)
	dy := max(u0.Lo.Y-loc.Y, loc.Y-u0.Hi.Y, 0)
	d2 := dx*dx + dy*dy
	return d2 > b.hi2 || (!(d2 < b.lo2) && u0.MinDist(loc) > b.radius)
}

// refineNNCandidates is the NN refinement stage, shared by the
// single-engine evaluation and the router-side completion of a
// cross-shard one: id order, budget check, the shared-stream tally
// kernel (nn.Refine), threshold acceptance, canonical order, top-K.
// opts is req.Options with any Seed applied and defaults filled; ctx
// already carries its Timeout bound and is polled once per sample
// block, so deadlines and cancellation bite mid-stream. For threshold
// requests the kernel retires candidates the bounds have decided — the
// range refiners' rule — unless the caller forced AdaptiveOff; either
// way a threshold request's probabilities are exact only at or above
// Threshold (see package nn), and below it the merge reads nothing but
// the count. The Result carries the matches and the refinement's share
// of Cost; the caller adds the collection stage's.
func refineNNCandidates(ctx context.Context, req Request, opts EvalOptions, candidates []NNCandidate) (Result, error) {
	sc := nnScratchPool.Get().(*nnScratch)
	defer putNNScratch(sc)
	cands := slices.Grow(sc.objs[:0], len(candidates))[:len(candidates)]
	sc.objs = cands
	for i, c := range candidates {
		cands[i] = uncertain.PointObject{ID: c.ID, Loc: geom.Pt(c.Loc[0], c.Loc[1])}
	}
	// Refinement tie-breaking depends on slice order, so the order must
	// be a pure function of the candidate set: id order. collectNN and
	// the router's merge hand it over that way and skip the sort; an
	// EvaluateNNCandidates caller that concatenated per-shard lists does
	// not. Duplicate ids (a merge bug upstream) are refused rather than
	// silently double-counting a point.
	byID := func(a, b uncertain.PointObject) int { return cmp.Compare(a.ID, b.ID) }
	if !slices.IsSortedFunc(cands, byID) {
		slices.SortFunc(cands, byID)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].ID == cands[i-1].ID {
			return Result{}, badRequest("candidates", errors.New("duplicate candidate id"))
		}
	}
	var res Result
	res.Cost.Refined = len(cands)
	if len(cands) == 0 {
		return res, nil
	}
	samples := req.NNSamples
	if samples <= 0 {
		samples = nn.DefaultSamples
	}
	// The shared stream draws `samples` positions and resolves each
	// through the candidate grid — a few distance evaluations when the
	// candidates spread over the grid, but every candidate when they
	// crowd one cell. The worst-case refinement work is therefore still
	// samples × candidates distance evaluations, and that product is
	// what the budget bounds. The division form is overflow-safe:
	// samples × len(cands) > MaxSamples iff samples > MaxSamples /
	// len(cands) for positive operands.
	if opts.MaxSamples > 0 && int64(samples) > opts.MaxSamples/int64(len(cands)) {
		return Result{}, ErrSampleBudget
	}

	tr := obs.TraceFrom(ctx)
	spR := tr.StartSpan("refine")
	probs, stats, err := nn.Refine(cands, req.Issuer.PDF, opts.Rng.Int63(), nn.RefineConfig{
		Samples:   samples,
		Threshold: req.Threshold,
		Adaptive:  opts.Object.Adaptive == AdaptiveAuto,
		Cancel:    func() error { return canceled(ctx) },
		Out:       &sc.refined,
	})
	if err != nil {
		return Result{}, err
	}
	res.Cost.SamplesUsed = stats.Samples
	res.Cost.EarlyStopped = stats.EarlyStopped
	spR.AddSamples(stats.Samples)
	if spR.Active() {
		reason := "full-budget"
		if stats.Converged {
			reason = "converged"
		}
		spR.SetNote(fmt.Sprintf("%s rounds=%d early_stopped=%d grid=%d resolved=%d of %d",
			reason, stats.Rounds, stats.EarlyStopped, stats.GridCells, stats.Resolved, stats.Samples))
	}
	spR.End()

	spM := tr.StartSpan("merge")
	for i, p := range probs {
		if accept(p, req.Threshold) {
			res.Matches = append(res.Matches, Match{ID: cands[i].ID, P: p})
		} else {
			res.Cost.BelowThreshold++
		}
	}
	SortMatches(res.Matches)
	res.Matches = res.TopK(req.K)
	spM.SetItems(len(res.Matches))
	spM.End()
	return res, nil
}

// evaluateNN answers one KindNN request against this state: collect,
// then refine. req must already be validated; opts is req.Options with
// any Seed applied. An empty point database has an empty answer — not
// an error — so standing NN requests drain to empty via Left deltas
// when the last point is deleted, exactly like the range kinds.
func (st *engineState) evaluateNN(ctx context.Context, req Request, opts EvalOptions) (Result, error) {
	start := time.Now()
	opts = opts.withDefaults()
	ctx, cancel := opts.evalContext(ctx)
	defer cancel()

	set, visited, err := st.collectNN(ctx, req.Issuer.Region(), NNCandidateOptions{})
	if err != nil {
		return Result{}, err
	}
	res, err := refineNNCandidates(ctx, req, opts, set.Candidates)
	if err != nil {
		return Result{}, err
	}
	res.Tau = set.Tau
	res.Cost.Candidates = visited
	res.Cost.NodeAccesses = set.NodeAccesses
	res.Cost.Duration = time.Since(start)
	return res, nil
}
