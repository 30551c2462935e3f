package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

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
// plan, and reports the sampling cost. workers <= 1 refines serially
// on the caller's goroutine; workers > 1 splits the survivors across
// a worker pool. Candidates refined by Monte-Carlo each draw from
// their own deterministic source derived (splitmix-style, see
// mcbound.DeriveSeed) from a single parent draw of opts.Rng and the
// candidate's object id — serial and parallel alike.
//
// Reproducibility contract: for a fixed engine, query, and options
// seed, results are bit-identical run to run and across every worker
// count, serial included — seeding is per candidate object, so
// neither the scheduler, the worker count, nor the refinement order
// can change which sample stream refines which object. Keying the
// stream by object id (not survivor index) also means pruning
// configuration cannot shift a surviving object's stream.
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
// make the full total independent of refinement order — even though
// the exact stopping candidate under workers > 1 is not.
func refineSurvivors(ctx context.Context, plan queryPlan, survivors []*uncertain.Object, opts EvalOptions, workers int) ([]float64, refineStats, error) {
	var st refineStats
	if len(survivors) == 0 {
		return nil, st, nil
	}
	if workers > len(survivors) {
		workers = len(survivors)
	}
	probs := make([]float64, len(survivors))

	// Sampling sources are only consulted by Monte-Carlo refinement
	// (forced, or any side of the duality integral non-separable), so
	// the per-candidate rand.New is only paid where hundreds of
	// samples dwarf it; pure closed-form refinement never derives one,
	// and never draws the parent either — which is what lets a request's
	// own source (newSeededRand) go unseeded. When any candidate samples,
	// the parent is drawn here, before refinement starts, so it is the
	// same draw of opts.Rng on the serial and parallel paths.
	mcAll := opts.Object.ForceMonteCarlo || !plan.qualifier.separable
	var parent int64
	if mcAll || slices.ContainsFunc(survivors, func(o *uncertain.Object) bool { return !isSeparable(o.PDF) }) {
		parent = opts.Rng.Int63()
	}

	budget := opts.MaxSamples

	refineOne := func(i int, cfg ObjectEvalConfig, sc *evalScratch) (int, bool) {
		obj := survivors[i]
		if mcAll || !isSeparable(obj.PDF) {
			cfg.Rng = newSeededRand(mcbound.DeriveSeed(parent, int(obj.ID)))
		}
		p, n, early := plan.qualifier.qualifyThreshold(obj.PDF, plan.q.Threshold, cfg, sc)
		probs[i] = p
		return n, early
	}

	if workers <= 1 {
		sc := acquireScratch()
		defer releaseScratch(sc)
		for i := range survivors {
			if err := canceled(ctx); err != nil {
				return probs, st, err
			}
			if overBudget(st.samples, budget) {
				return probs, st, ErrSampleBudget
			}
			n, early := refineOne(i, opts.Object, sc)
			st.samples += int64(n)
			if early {
				st.earlyStopped++
			}
		}
		if overBudget(st.samples, budget) {
			return probs, st, ErrSampleBudget
		}
		return probs, st, nil
	}

	var (
		wg           sync.WaitGroup
		next         atomic.Int64
		samples      atomic.Int64
		earlyStopped atomic.Int64
	)
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := acquireScratch()
			defer releaseScratch(sc)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(survivors) || canceled(ctx) != nil {
					break
				}
				if overBudget(samples.Load(), budget) {
					break
				}
				n, early := refineOne(i, opts.Object, sc)
				samples.Add(int64(n))
				if early {
					earlyStopped.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	st.samples = samples.Load()
	st.earlyStopped = int(earlyStopped.Load())
	if err := canceled(ctx); err != nil {
		return probs, st, err
	}
	if overBudget(st.samples, budget) {
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
