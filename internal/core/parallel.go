package core

import (
	"context"
	"math/rand"
	"slices"

	"repro/internal/mcbound"
	"repro/internal/pdf"
)

// refineStats aggregates what refinement spent: total Monte-Carlo
// samples drawn and how many candidates a confidence bound settled
// before their full budget.
type refineStats struct {
	samples      int64
	earlyStopped int
}

// refineSurvivors computes the qualification probability of each
// survivor of pruning into its p, in input order, through the prepared
// query plan and sc, and reports the sampling cost. Candidates refined
// by Monte-Carlo each draw from their own deterministic source derived
// (splitmix-style, see mcbound.DeriveSeed) from the parent draw of the
// request's seed (parentDraw) and the candidate's object id.
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
// ctx is checked between candidates; on cancellation it returns the
// context's error. opts.MaxSamples, when set, bounds the query's total
// samples: refinement stops drawing once the running total exceeds it
// and returns ErrSampleBudget.
// Whether the budget trips is deterministic — per-candidate streams
// make the full total independent of refinement order.
func (st *engineState) refineSurvivors(ctx context.Context, plan queryPlan, survivors []candidate, opts EvalOptions, seed int64, sc *evalScratch) (refineStats, error) {
	var rs refineStats
	if len(survivors) == 0 {
		return rs, nil
	}

	// Sampling sources are only consulted by Monte-Carlo refinement
	// (forced, or any side of the duality integral non-separable), so
	// the per-candidate rand.New is only paid where hundreds of
	// samples dwarf it; pure closed-form refinement never derives one,
	// and never computes the parent draw either. A leaf record's pdf is
	// a uniform product: separable.
	mcAll := opts.Object.ForceMonteCarlo || !plan.qualifier.separable
	var parent int64
	if mcAll || slices.ContainsFunc(survivors, func(c candidate) bool { return c.obj != nil && !isSeparable(c.obj.PDF) }) {
		parent = parentDraw(seed)
	}

	for i := range survivors {
		c := &survivors[i]
		if err := canceled(ctx); err != nil {
			return rs, err
		}
		if overBudget(rs.samples, opts.MaxSamples) {
			return rs, ErrSampleBudget
		}
		if c.obj == nil && !mcAll {
			// A leaf record in closed form: its marginals are the
			// uniform ones over its rectangle, held in sc.
			sc.ux = pdf.UniformOn(c.region.Lo.X, c.region.Hi.X)
			sc.uy = pdf.UniformOn(c.region.Lo.Y, c.region.Hi.Y)
			c.p = plan.qualifier.closedForm(c.region, &sc.ux, &sc.uy, sc)
			continue
		}
		obj := c.obj
		if obj == nil {
			// Sampling draws from the pdf itself: a leaf record's is
			// rebuilt from its rectangle.
			obj = st.uncIdx.LeafObject(c.id, c.region)
		}
		var rng *rand.Rand
		if mcAll || !isSeparable(obj.PDF) {
			rng = newRand(mcbound.DeriveSeed(parent, int(c.id)))
		}
		p, n, early := plan.qualifier.qualifyThreshold(obj.PDF, plan.q.Threshold, opts.Object, rng, sc)
		c.p = p
		rs.samples += int64(n)
		if early {
			rs.earlyStopped++
		}
	}
	if overBudget(rs.samples, opts.MaxSamples) {
		return rs, ErrSampleBudget
	}
	return rs, nil
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
