package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/serve"
)

// tally counts operations across every phase of a run: the JSON result
// reports them, and any failed one makes the run incorrect.
type tally struct{ attempted, failed int }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

// count records one operation and reports failures on stderr (the
// first few in full — the offending request is what a reader needs).
func (t *tally) count(what string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", what, err)
	}
}

// refEvaluate answers a wire request on the reference engine the way a
// standalone ildq-serve would (same decoding, same NN sample budget).
func refEvaluate(eng *core.Engine, rj serve.RequestJSON) ([]serve.MatchJSON, error) {
	req, err := rj.ToRequest()
	if err != nil {
		return nil, err
	}
	if req.Kind == core.KindNN {
		req.Options.MaxSamples = serve.DefaultNNBudget
	}
	resp, err := eng.Evaluate(context.Background(), req)
	if err != nil {
		return nil, err
	}
	return serve.ToMatchesJSON(resp.Matches), nil
}

// sameMatches requires identical ids in identical order with
// Float64bits-equal probabilities.
func sameMatches(got, want []serve.MatchJSON) error {
	if len(got) != len(want) {
		return fmt.Errorf("fleet returned %d matches, the reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].P) != math.Float64bits(want[i].P) {
			return fmt.Errorf("match %d: fleet {id %d p %v}, reference {id %d p %v}",
				i, got[i].ID, got[i].P, want[i].ID, want[i].P)
		}
	}
	return nil
}

// checkAnswers is the correctness gate: n seeded requests of each kind
// go to the fleet and to a single in-process engine holding the
// world's current state, and every answer must agree bit for bit.
func checkAnswers(c *client, w *world, qs *queryStream, kinds []string, n int) (tally, error) {
	var t tally
	eng, err := w.engine()
	if err != nil {
		return t, fmt.Errorf("building the reference engine: %w", err)
	}
	for _, kind := range kinds {
		for i := range n {
			rj := qs.next(kind)
			if kind == "nn" && i%2 == 1 {
				// At the workload's threshold most NN answers are empty;
				// every other request asks for the unconstrained top 1, so
				// a probability is compared too.
				rj.Threshold = 0
			}
			got, err := c.evaluate(rj)
			if err == nil {
				var want []serve.MatchJSON
				if want, err = refEvaluate(eng, rj); err == nil {
					err = sameMatches(got.Matches, want)
				}
			}
			if err != nil {
				body, _ := json.Marshal(rj)
				err = fmt.Errorf("%w\n  request: %s", err, body)
			}
			t.count("answer check ("+kind+")", err)
		}
	}
	return t, nil
}
