// Livetracker: a long-running dispatch service built on the engine's
// dynamic-update API — the moving-object database setting the paper's
// introduction motivates (vehicles join, leave, and re-report
// positions while queries keep arriving).
//
// The program maintains an engine under churn (one ApplyUpdates batch
// per epoch: an upsert for every position re-report and every vehicle
// entering service, a delete for every one leaving it), answers a batch of concurrent rider requests each epoch
// with EvaluateAll — responses stream back as each rider's request
// finishes, under a per-request deadline, against one pinned snapshot
// — and tracks the answer-quality metrics (expected count, quality
// score, entropy) as fleet uncertainty changes.
//
// Run with: go run ./examples/livetracker
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
)

const (
	worldSize  = 10000.0
	initFleet  = 600
	epochs     = 6
	ridersPerE = 5
	rangeHalf  = 800.0
	threshold  = 0.3
)

func main() {
	rng := rand.New(rand.NewSource(9))

	// Initial fleet with tight uncertainty (fresh reports).
	var objs []*repro.Object
	positions := map[repro.ID]repro.Point{}
	for i := 0; i < initFleet; i++ {
		id := repro.ID(i)
		pos := repro.Pt(rng.Float64()*worldSize, rng.Float64()*worldSize)
		positions[id] = pos
		objs = append(objs, mkVehicle(id, pos, 50))
	}
	engine, err := repro.NewEngine(nil, objs, repro.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	nextID := repro.ID(initFleet)

	for epoch := 1; epoch <= epochs; epoch++ {
		// Churn: 10% of vehicles leave, new ones join, everyone else
		// re-reports with epoch-dependent staleness — one update batch
		// per epoch, committed atomically.
		var ids []repro.ID
		for id := range positions {
			ids = append(ids, id)
		}
		var updates []repro.Update
		for _, id := range ids {
			switch {
			case rng.Float64() < 0.10:
				updates = append(updates, repro.Update{Op: repro.OpDeleteObject, ID: id})
				delete(positions, id)
			default:
				// Drift and re-report; uncertainty grows with a random
				// staleness between 30 and 330 units.
				pos := positions[id]
				pos = repro.Pt(
					clamp(pos.X+rng.NormFloat64()*120, 0, worldSize),
					clamp(pos.Y+rng.NormFloat64()*120, 0, worldSize),
				)
				positions[id] = pos
				updates = append(updates, repro.Update{Op: repro.OpUpsertObject, Object: mkVehicle(id, pos, 30+rng.Float64()*300)})
			}
		}
		for i := 0; i < initFleet/10; i++ {
			pos := repro.Pt(rng.Float64()*worldSize, rng.Float64()*worldSize)
			positions[nextID] = pos
			updates = append(updates, repro.Update{Op: repro.OpUpsertObject, Object: mkVehicle(nextID, pos, 50)})
			nextID++
		}
		if rep := engine.ApplyUpdates(updates); len(rep.Errors) > 0 {
			log.Fatal(rep.Errors[0].Err)
		}

		// A batch of rider requests, fanned out with EvaluateAll: each
		// response is delivered as its request finishes, under a 100ms
		// per-request deadline (a dispatch service would rather drop
		// one rider's answer than stall the epoch), and the whole
		// batch observes one engine version.
		var batch []repro.Request
		for r := 0; r < ridersPerE; r++ {
			issPDF, err := repro.NewUniformPDF(repro.RectCentered(
				repro.Pt(rng.Float64()*worldSize, rng.Float64()*worldSize), 200, 200))
			if err != nil {
				log.Fatal(err)
			}
			issuer, err := repro.NewIssuer(issPDF)
			if err != nil {
				log.Fatal(err)
			}
			req := repro.RequestUncertain(issuer, rangeHalf, rangeHalf, threshold)
			req.Options.Timeout = 100 * time.Millisecond
			batch = append(batch, req)
		}
		type answer struct {
			resp repro.Response
			err  error
		}
		results := make([]answer, len(batch))
		err := engine.EvaluateAll(context.Background(), batch, repro.AllOptions{Workers: 4},
			func(i int, resp repro.Response, err error) { results[i] = answer{resp, err} })
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("epoch %d | fleet %d vehicles\n", epoch, engine.NumUncertain())
		for r, a := range results {
			if a.err != nil {
				// A rider whose request overran its deadline: report and
				// move on — the rest of the epoch's answers are good.
				fmt.Printf("  rider %d: no answer (%v)\n", r+1, a.err)
				continue
			}
			m := a.resp.Matches
			fmt.Printf("  rider %d: %2d callable | E[in range] %.1f | quality %.2f | entropy %.1f bits | %d node reads\n",
				r+1, len(m), repro.ExpectedCount(m), repro.QualityScore(m),
				repro.AnswerEntropy(m), a.resp.Cost.NodeAccesses)
		}
	}
}

func mkVehicle(id repro.ID, pos repro.Point, half float64) *repro.Object {
	region := repro.RectCentered(pos, half, half)
	// Clamp to the world so regions stay valid near the border.
	p, err := repro.NewUniformPDF(region)
	if err != nil {
		log.Fatal(err)
	}
	o, err := repro.NewUncertainObject(id, p, nil)
	if err != nil {
		log.Fatal(err)
	}
	return o
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
