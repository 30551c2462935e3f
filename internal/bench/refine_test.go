package bench

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
)

// refineWorld lazily builds one mid-size environment shared by the
// refinement benchmarks (large enough for realistic candidate sets,
// small enough to build in seconds).
type refineWorld struct {
	once    sync.Once
	env     *Env
	issuers []*core.Query
	err     error
}

var rfWorld refineWorld

func (w *refineWorld) init(b *testing.B) (*Env, []core.Query) {
	b.Helper()
	w.once.Do(func() {
		env, err := NewEnv(Config{Points: 8000, Rects: 10000, Queries: 64, Seed: 7})
		if err != nil {
			w.err = err
			return
		}
		w.env = env
		iss, err := env.Issuers(env.IssuerStream("refine"), 64, 250)
		if err != nil {
			w.err = err
			return
		}
		w.issuers = make([]*core.Query, len(iss))
		for i, is := range iss {
			w.issuers[i] = &core.Query{Issuer: is, W: 500, H: 500, Threshold: 0.3}
		}
	})
	if w.err != nil {
		b.Fatal(w.err)
	}
	qs := make([]core.Query, len(w.issuers))
	for i, q := range w.issuers {
		qs[i] = *q
	}
	return w.env, qs
}

// BenchmarkRefineCIUQ measures the enhanced C-IUQ evaluation path for a
// single query — index probe, pruning, and closed-form refinement —
// the hot path the prepared query plan is meant to speed up.
func BenchmarkRefineCIUQ(b *testing.B) {
	env, queries := rfWorld.init(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		q := queries[n%len(queries)]
		resp, err := env.Engine.Evaluate(context.Background(),
			core.Request{Kind: core.KindUncertain, Issuer: q.Issuer, W: q.W, H: q.H, Threshold: q.Threshold, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		_ = resp.Result
	}
}

// BenchmarkRefineIUQ is the unconstrained variant: every candidate is
// refined (no threshold pruning), maximizing pressure on the
// per-candidate qualification arithmetic.
func BenchmarkRefineIUQ(b *testing.B) {
	env, queries := rfWorld.init(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		q := queries[n%len(queries)]
		q.Threshold = 0
		resp, err := env.Engine.Evaluate(context.Background(),
			core.Request{Kind: core.KindUncertain, Issuer: q.Issuer, W: q.W, H: q.H, Threshold: q.Threshold, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		_ = resp.Result
	}
}
