package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestFleetFaultSchedule drives a durable fleet through seeded schedules
// of faults — a dropped first attempt on any hop, a delay, a duplicated
// read or update sub-batch, a torn read reply (on one attempt or on
// all), a lost deregistration reply, a shard killed between batches and
// restarted from its WAL — and holds it to the single engine: every
// batch is acknowledged whole, every answer is the single engine's or
// partial with the faulted shard listed, and once the faults stop the
// fleet has converged. A failure logs the schedule; one seed replays
// alone: go test -run 'TestFleetFaultSchedule/seed=17' ./internal/shard
func TestFleetFaultSchedule(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			n := 2 + rng.Intn(2)
			rt := fleet(t, n, durable)
			schedule := []string{fmt.Sprintf("%d shards", n)}
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("schedule of seed %d:\n%s", seed, strings.Join(schedule, "\n"))
				}
			})
			hops := []string{"POST /v1/evaluate", nnRoute, "POST /v1/updates", "POST /v1/queries", "DELETE /v1/queries/"}
			reads := hops[:2]
			menu := []func() *fault{
				func() *fault { return &fault{route: hops[rng.Intn(len(hops))], kind: dropRequest, times: 1} },
				func() *fault {
					return &fault{route: hops[rng.Intn(len(hops))], kind: delayRequest, n: 1 + rng.Intn(4), times: 1}
				},
				func() *fault { return &fault{route: reads[rng.Intn(2)], kind: duplicateRequest, times: 1} },
				func() *fault { return &fault{route: "POST /v1/updates", kind: duplicateRequest, times: 1} },
				func() *fault {
					return &fault{route: reads[rng.Intn(2)], kind: tearReply, n: rng.Intn(400), times: 1 + 2*rng.Intn(2)}
				},
				func() *fault { return &fault{route: "DELETE /v1/queries/", kind: loseReply, times: 1} },
			}
			kinds := []string{"drop", "delay", "duplicate", "lose reply", "tear reply"}
			region := func() []float64 {
				cx, cy := rng.Float64()*10000, rng.Float64()*10000
				if rng.Intn(2) == 0 { // across a tile border
					cx, cy = float64(1+rng.Intn(3))*2500, 5000+(rng.Float64()-0.5)*400
				}
				hw, hh := 20+rng.Float64()*300, 20+rng.Float64()*300
				return []float64{math.Max(0, cx-hw), math.Max(0, cy-hh), math.Min(10000, cx+hw), math.Min(10000, cy+hh)}
			}

			for step := range 20 {
				rt.faults.disarm()
				if step > 0 && rng.Intn(5) == 0 {
					s := rng.Intn(n)
					schedule = append(schedule, fmt.Sprintf("%2d: restart shard %d from its WAL", step, s))
					rt.restart(t, s)
				}
				faulted := rng.Intn(n)
				for range 1 + rng.Intn(2) {
					fl := menu[rng.Intn(len(menu))]()
					fl.shard = faulted
					rt.faults.arm(fl)
					schedule = append(schedule, fmt.Sprintf("%2d: %s on shard %d %q (n=%d, times=%d)", step, kinds[fl.kind], faulted, fl.route, fl.n, fl.times))
				}

				var ups []serve.UpdateJSON
				for range 20 {
					id := int64(rng.Intn(60))
					switch rng.Intn(5) {
					case 0, 1:
						ups = append(ups, serve.UpdateJSON{Op: "upsert_object", ID: id, Region: region()})
					case 2, 3:
						ups = append(ups, serve.UpdateJSON{Op: "upsert_point", ID: id, X: rng.Float64() * 10000, Y: rng.Float64() * 10000})
					case 4:
						ups = append(ups, serve.UpdateJSON{Op: []string{"delete_object", "delete_point"}[rng.Intn(2)], ID: id})
					}
				}
				rt.apply(t, serve.UpdatesRequest{Updates: ups})

				r := region()
				iss := serve.IssuerJSON{Region: r}
				for _, q := range []serve.RequestJSON{
					{Kind: "uncertain", Issuer: iss, W: 900, H: 900, Threshold: 0.1, Seed: rng.Int63()},
					{Kind: "points", Issuer: iss, W: 1200, H: 1200, Seed: rng.Int63()},
					{Kind: "nn", Issuer: iss, K: 2, NNSamples: 256, Seed: rng.Int63()},
				} {
					got, want := rt.ask(t, "/v1/evaluate", q)
					if got.Partial && !slices.Equal(got.Missing, []string{fmt.Sprint(faulted)}) || !got.Partial && !bytes.Equal(got.Matches, want.Matches) {
						t.Fatalf("step %d: %s at %v: fleet (partial %v, missing %v)\n%s\nsingle engine\n%s", step, q.Kind, r, got.Partial, got.Missing, got.Matches, want.Matches)
					}
				}
				if step%3 == 0 {
					q := serve.RequestJSON{Kind: "uncertain", Issuer: iss, W: 1500, H: 1500, Seed: rng.Int63()}
					got, want := rt.ask(t, "/v1/queries", q)
					rt.deregister(t, got, want)
					if !bytes.Equal(got.Snapshot, want.Snapshot) {
						t.Fatalf("step %d: registered at %v: fleet snapshot\n%s\nsingle engine\n%s", step, r, got.Snapshot, want.Snapshot)
					}
				}
			}
			rt.faults.disarm()
			rt.converged(t)
		})
	}
}
