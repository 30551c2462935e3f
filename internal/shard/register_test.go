package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/serve"
)

// TestRouterRegisterSnapshotBitExact: the registration snapshot a client
// reads from the router's POST /v1/queries is, byte for byte, the one a
// single engine holding all the data answers — the same kind and the
// same snapshot bytes, every straddling object listed once — on fleets
// of 2 and 4 shards, with standing range queries whose guards cross the
// shard borders.
func TestRouterRegisterSnapshotBitExact(t *testing.T) {
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			rt := fleet(t, n)
			front := rt.front
			_, ref := reference(t)
			ctx := t.Context()
			rng := rand.New(rand.NewSource(int64(4500 + n)))

			// The 4x2 grid's borders are at x = 2500, 5000, 7500 and
			// y = 5000; a straddler is centred on one of them.
			border := func() (float64, float64) {
				if rng.Intn(2) == 0 {
					return float64(1+rng.Intn(3)) * 2500, 300 + rng.Float64()*9400
				}
				return 300 + rng.Float64()*9400, 5000
			}
			straddlers := map[int64]bool{}
			batch := func() serve.UpdatesRequest {
				var ups []serve.UpdateJSON
				for range 60 {
					id := int64(rng.Intn(120))
					switch rng.Intn(5) {
					case 0, 1:
						cx, cy := rng.Float64()*10000, rng.Float64()*10000
						if rng.Intn(2) == 0 {
							cx, cy = border()
						}
						hw, hh := 20+rng.Float64()*250, 20+rng.Float64()*250
						region := []float64{math.Max(0, cx-hw), math.Max(0, cy-hh), math.Min(10000, cx+hw), math.Min(10000, cy+hh)}
						r, _ := serve.ToRect(region)
						straddlers[id] = len(rt.tiles.ShardsOverlapping(r)) > 1
						ups = append(ups, serve.UpdateJSON{Op: "upsert_object", ID: id, Region: region})
					case 2, 3:
						x, y := rng.Float64()*10000, rng.Float64()*10000
						ups = append(ups, serve.UpdateJSON{Op: "upsert_point", ID: id, X: x, Y: y})
					case 4:
						delete(straddlers, id)
						ups = append(ups, serve.UpdateJSON{Op: "delete_object", ID: id})
					}
				}
				return serve.UpdatesRequest{Updates: ups}
			}

			register := func(url string, rj serve.RequestJSON) (kind string, snapshot json.RawMessage) {
				t.Helper()
				status, body := postJSON(t, url+"/v1/queries", rj)
				if status != http.StatusCreated {
					t.Fatalf("register at %s: HTTP %d %s", url, status, body)
				}
				var reg struct {
					Kind     string          `json:"kind"`
					Snapshot json.RawMessage `json:"snapshot"`
				}
				if err := json.Unmarshal(body, &reg); err != nil {
					t.Fatalf("register at %s: %v: %s", url, err, body)
				}
				return reg.Kind, reg.Snapshot
			}

			seenStraddlers := 0
			for round := range 4 {
				b := batch()
				if _, err := rt.ApplyUpdates(ctx, b); err != nil {
					t.Fatalf("round %d: router updates: %v", round, err)
				}
				if _, err := ref.Updates(ctx, b); err != nil {
					t.Fatalf("round %d: reference updates: %v", round, err)
				}
				for q := range 8 {
					cx, cy := border()
					if q%4 == 3 {
						cx, cy = 500+rng.Float64()*9000, 500+rng.Float64()*9000
					}
					rj := serve.RequestJSON{Kind: "uncertain", Issuer: serve.IssuerJSON{Region: []float64{cx - 250, cy - 250, cx + 250, cy + 250}},
						W: 600 + rng.Float64()*1200, H: 600 + rng.Float64()*1200, Seed: rng.Int63()}
					switch q % 3 {
					case 1:
						rj.Threshold = 0.2
					case 2:
						rj.Kind, rj.Threshold = "points", 0.1
					}
					gotKind, got := register(front.URL, rj)
					wantKind, want := register(ref.BaseURL, rj)
					if gotKind != wantKind || !bytes.Equal(got, want) {
						t.Fatalf("round %d query %d: router kind %q snapshot\n%s\nsingle engine kind %q snapshot\n%s", round, q, gotKind, got, wantKind, want)
					}
					var ms []serve.MatchJSON
					if err := json.Unmarshal(got, &ms); err != nil || ms == nil {
						t.Fatalf("round %d query %d: snapshot %s is not a list (%v)", round, q, got, err)
					}
					listed := map[int64]bool{}
					for _, m := range ms {
						if listed[m.ID] {
							t.Fatalf("round %d query %d: object %d listed twice in %s", round, q, m.ID, got)
						}
						listed[m.ID] = true
						if rj.Kind == "uncertain" && straddlers[m.ID] {
							seenStraddlers++
						}
					}
				}
			}
			if seenStraddlers == 0 {
				t.Fatal("no snapshot held a straddling object")
			}
		})
	}
}

// TestRouterRegisterMarksMissingShard: a registration a shard under its
// guard never accepted — here shard 1's reply is torn on every attempt —
// is answered 201 with the other shards' snapshot and marked partial,
// naming the shard, as a one-shot answer would be.
func TestRouterRegisterMarksMissingShard(t *testing.T) {
	rt := fleet(t, 2)
	rt.apply(t, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
		{Op: "upsert_object", ID: 1, Region: []float64{2400, 4700, 2600, 4900}},
		{Op: "upsert_object", ID: 2, Region: []float64{2400, 5100, 2600, 5300}},
	}})
	rt.faults.arm(&fault{shard: 1, route: "POST /v1/queries", kind: tearReply, n: 8})
	status, body := postJSON(t, rt.front.URL+"/v1/queries", serve.RequestJSON{Kind: "uncertain",
		Issuer: serve.IssuerJSON{Region: []float64{2300, 4700, 2700, 5300}}, W: 600, H: 600, Seed: 3})
	if status != http.StatusCreated || !bytes.HasSuffix(body, []byte(`"snapshot":[{"id":1,"p":1}],"partial":true,"missing_shards":["1"]}`+"\n")) {
		t.Fatalf("register with shard 1's reply torn: HTTP %d %s", status, body)
	}
}
