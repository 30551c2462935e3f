package core

import (
	"context"
	"slices"

	"repro/internal/mcbound"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// refineStats aggregates what refinement spent: total Monte-Carlo
// samples drawn and how many candidates a confidence bound settled
// before their full budget.
type refineStats struct {
	samples      int64
	earlyStopped int
}

// refineSurvivors computes qualification probabilities for the
// survivors of pruning, in input order, through the prepared query
// plan, and reports the sampling cost. Candidates refined by
// Monte-Carlo each draw from their own deterministic source derived
// (splitmix-style, see mcbound.DeriveSeed) from a single parent draw of
// opts.Rng and the candidate's object id.
//
// Reproducibility contract: for a fixed engine, query, and options
// seed, results are bit-identical run to run — and keying the stream
// by object id (not survivor index) means neither the pruning
// configuration nor a restriction to some ids (Snapshot.EvaluateOnly)
// can shift a surviving object's stream.
//
// When the query carries a threshold and opts.Object.Adaptive allows
// it, Monte-Carlo refinement early-terminates per candidate (see
// ObjectEvalConfig.Adaptive); the qualifying decision is unchanged.
//
// ctx is checked between candidates; on cancellation the partial
// probability slice and an error are returned. opts.MaxSamples, when
// set, bounds the query's total samples: refinement stops drawing
// once the running total exceeds it and returns ErrSampleBudget.
// Whether the budget trips is deterministic — per-candidate streams
// make the full total independent of refinement order.
func refineSurvivors(ctx context.Context, plan queryPlan, survivors []*uncertain.Object, opts EvalOptions) ([]float64, refineStats, error) {
	var st refineStats
	if len(survivors) == 0 {
		return nil, st, nil
	}
	probs := make([]float64, len(survivors))

	// Sampling sources are only consulted by Monte-Carlo refinement
	// (forced, or any side of the duality integral non-separable), so
	// the per-candidate rand.New is only paid where hundreds of
	// samples dwarf it; pure closed-form refinement never derives one,
	// and never draws the parent either — which is what lets a request's
	// own source (newSeededRand) stay unseeded.
	mcAll := opts.Object.ForceMonteCarlo || !plan.qualifier.separable
	var parent int64
	if mcAll || slices.ContainsFunc(survivors, func(o *uncertain.Object) bool { return !isSeparable(o.PDF) }) {
		parent = opts.Rng.Int63()
	}

	sc := acquireScratch()
	defer releaseScratch(sc)
	for i, obj := range survivors {
		if err := canceled(ctx); err != nil {
			return probs, st, err
		}
		if overBudget(st.samples, opts.MaxSamples) {
			return probs, st, ErrSampleBudget
		}
		cfg := opts.Object
		if mcAll || !isSeparable(obj.PDF) {
			cfg.Rng = newSeededRand(mcbound.DeriveSeed(parent, int(obj.ID)))
		}
		p, n, early := plan.qualifier.qualifyThreshold(obj.PDF, plan.q.Threshold, cfg, sc)
		probs[i] = p
		st.samples += int64(n)
		if early {
			st.earlyStopped++
		}
	}
	if overBudget(st.samples, opts.MaxSamples) {
		return probs, st, ErrSampleBudget
	}
	return probs, st, nil
}

// isSeparable reports whether the pdf factors by axis (the closed-form
// refinement precondition).
func isSeparable(p pdf.PDF) bool {
	_, ok := p.(pdf.Separable)
	return ok
}

// canceled returns the context's error if it is done, nil otherwise.
// The fast path (context.Background, undecided contexts) is a single
// channel poll, cheap enough for per-candidate checks.
func canceled(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
