package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/uncertain"
)

// This file exposes the two stages of a KindNN evaluation (collectNN
// and refineNNCandidates, nnquery.go) as separate steps so a fleet
// router can run the candidate-pruning stage on every shard and the
// refinement stage once, centrally:
//
//	per shard:  set, _ := snap.NNCandidates(ctx, req, opts)   // local tau + candidates
//	router:     tau  = min over shards of set.Tau             // global pruning radius
//	            cands = union, filtered MinDist <= tau        // exact candidate set
//	            res  = EvaluateNNCandidates(ctx, req, cands, tau)
//
// Because every indexed point lives on exactly one shard, the global
// minimum of the local taus equals the single-engine tau, and the
// filtered union equals the single-engine candidate set; refinement is
// a pure function of (request seed, sorted candidate set), so the
// merged result is bit-identical to evaluating req against one engine
// holding all the points.

// NNCandidate is one point surfaced by the NN candidate-pruning stage.
type NNCandidate struct {
	ID  uncertain.ID
	Loc [2]float64
}

// NNCandidateSet is the outcome of the pruning stage on one snapshot.
type NNCandidateSet struct {
	// Tau is the local pruning radius: the smallest maximum distance
	// any indexed point has to the issuer region (+Inf when the
	// snapshot holds no points).
	Tau float64
	// Candidates holds the points whose minimum distance to the issuer
	// region is at most min(Tau, TauBound), sorted by ID.
	Candidates []NNCandidate
	// Truncated reports that Limit cut the candidate list short; the
	// caller must re-issue with a tighter TauBound or larger Limit
	// before the set can be trusted.
	Truncated bool
	// NodeAccesses counts index pages read by the tau search and probe.
	NodeAccesses int64
	// Version is the engine version the collection observed.
	Version uint64
}

// NNCandidateOptions tunes NN candidate collection.
type NNCandidateOptions struct {
	// TauBound, when positive and finite, caps the collection radius
	// at min(local tau, TauBound). A router that has already merged a
	// tighter global tau passes it here so a shard with a loose local
	// tau does not ship an oversized candidate list.
	TauBound float64
	// Limit, when positive, caps the number of candidates returned;
	// exceeding it sets Truncated instead of growing the response
	// without bound.
	Limit int
}

// NNCandidates runs the candidate-pruning stage of a KindNN request
// against the snapshot: the local tau branch-and-bound plus the range
// probe of the tau-expanded issuer region. It never samples, so the
// result is independent of Seed and NNSamples; req.Options.Timeout
// bounds it as it bounds Evaluate.
func (s *Snapshot) NNCandidates(ctx context.Context, req Request, o NNCandidateOptions) (NNCandidateSet, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.Validate(); err != nil {
		return NNCandidateSet{}, err
	}
	if req.Kind != KindNN {
		return NNCandidateSet{}, badRequest("kind", errors.New("NNCandidates requires a nn request"))
	}
	st, err := s.acquireUse()
	if err != nil {
		return NNCandidateSet{}, err
	}
	defer s.e.releaseState(st)
	ctx, cancel := req.Options.evalContext(ctx)
	defer cancel()

	set, _, err := st.collectNN(ctx, req.Issuer.Region(), o)
	return set, err
}

// EvaluateNNCandidates runs the refinement stage of a KindNN request
// over an explicitly supplied candidate set and pruning radius tau —
// the router-side completion of a cross-shard NN evaluation. The
// candidate slice is the merged union of the shards' NNCandidates
// results filtered to MinDist <= tau; duplicates by ID are rejected.
// Seed handling, sample budgeting, threshold acceptance, ordering, and
// top-K truncation are a single-engine evaluation's own (the shared
// refinement stage), so the matches (values and order) are
// bit-identical to one.
func EvaluateNNCandidates(ctx context.Context, req Request, candidates []NNCandidate, tau float64) (Result, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.Validate(); err != nil {
		return Result{}, err
	}
	if req.Kind != KindNN {
		return Result{}, badRequest("kind", errors.New("EvaluateNNCandidates requires a nn request"))
	}
	opts := req.seededOptions().withDefaults()
	ctx, cancel := opts.evalContext(ctx)
	defer cancel()

	res, err := refineNNCandidates(ctx, req, opts, candidates)
	if err != nil {
		return Result{}, err
	}
	res.Tau = tau
	res.Cost.Candidates = len(candidates)
	res.Cost.Duration = time.Since(start)
	return res, nil
}
