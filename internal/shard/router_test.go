package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// routerEvaluate is a client's POST /v1/evaluate on the router's front,
// read with encoding/json.
func routerEvaluate(ctx context.Context, rt *testFleet, q serve.RequestJSON) (serve.EvaluateResponse, error) {
	return shardEvaluate(ctx, &Client{ID: "router", BaseURL: rt.front.URL, Retry: RetryPolicy{Attempts: 1}}, q)
}

// shardEvaluate is a client's POST /v1/evaluate on one server — a shard
// or the single-engine reference — read with encoding/json.
func shardEvaluate(ctx context.Context, c *Client, q serve.RequestJSON) (serve.EvaluateResponse, error) {
	var out serve.EvaluateResponse
	err := post(c, ctx, "/v1/evaluate", &q, serve.AppendRequest, jsonReply("", unmarshalInto(&out)))
	return out, err
}

// requireSameMatches fails unless the router's answer equals the single
// engine's: same ids in the same order, probabilities Float64bits-equal.
func requireSameMatches(t *testing.T, what string, got, want serve.EvaluateResponse) {
	t.Helper()
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("%s: router %d matches, single engine %d\nrouter: %v\nsingle: %v",
			what, len(got.Matches), len(want.Matches), got.Matches, want.Matches)
	}
	for i, w := range want.Matches {
		if g := got.Matches[i]; g.ID != w.ID || math.Float64bits(g.P) != math.Float64bits(w.P) {
			t.Fatalf("%s: match %d differs: router {%d %v} single {%d %v}", what, i, g.ID, g.P, w.ID, w.P)
		}
	}
}

// TestRouterBitExact is the sharding correctness property: a random
// trace of updates — straddling objects included — interleaved with
// queries of every kind produces Float64bits-identical qualifying sets
// through router+N shards and through a single engine, for N ∈ {1, 2,
// 4}. The NN arm repeats it on random tile maps, where the router asks
// only the shards the tau ball can reach (nnFanOutBitExact), and at a
// global tau of 0 (nnTauZeroBitExact).
func TestRouterBitExact(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("nn/random-tiles/seed=%d", seed), func(t *testing.T) { nnFanOutBitExact(t, seed) })
	}
	t.Run("nn/tau-zero", nnTauZeroBitExact)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			rt := fleet(t, n)
			_, ref := reference(t)
			rng := rand.New(rand.NewSource(int64(4700 + n)))
			ctx := t.Context()

			region := func(straddle bool) []float64 {
				var cx, cy float64
				if straddle {
					// Center on a tile boundary (grid 4x2 → x at
					// multiples of 2500, y at 5000) so the region
					// replicates across shards.
					cx = float64(1+rng.Intn(3)) * 2500
					cy = 5000
				} else {
					cx = rng.Float64() * 10000
					cy = rng.Float64() * 10000
				}
				hw := 20 + rng.Float64()*400
				hh := 20 + rng.Float64()*400
				return []float64{
					math.Max(0, cx-hw), math.Max(0, cy-hh),
					math.Min(10000, cx+hw), math.Min(10000, cy+hh),
				}
			}

			liveObj := map[int64][]float64{}
			livePt := map[int64][2]float64{}
			batch := func(size int) serve.UpdatesRequest {
				var ups []serve.UpdateJSON
				for range size {
					id := int64(rng.Intn(60))
					switch rng.Intn(6) {
					case 0, 1: // upsert/move an uncertain object
						r := region(rng.Intn(2) == 0)
						liveObj[id] = r
						ups = append(ups, serve.UpdateJSON{Op: "upsert_object", ID: id, Region: r})
					case 2, 3: // upsert/move a point
						x, y := rng.Float64()*10000, rng.Float64()*10000
						livePt[id] = [2]float64{x, y}
						ups = append(ups, serve.UpdateJSON{Op: "upsert_point", ID: id, X: x, Y: y})
					case 4:
						delete(liveObj, id)
						ups = append(ups, serve.UpdateJSON{Op: "delete_object", ID: id})
					case 5:
						delete(livePt, id)
						ups = append(ups, serve.UpdateJSON{Op: "delete_point", ID: id})
					}
				}
				return serve.UpdatesRequest{Updates: ups}
			}

			queries := func() []serve.RequestJSON {
				cx, cy := rng.Float64()*9000+500, rng.Float64()*9000+500
				iss := serve.IssuerJSON{Region: []float64{cx - 300, cy - 300, cx + 300, cy + 300}}
				return []serve.RequestJSON{
					{Kind: "uncertain", Issuer: iss, W: 900, H: 900, Threshold: 0.1, Seed: rng.Int63()},
					{Kind: "uncertain", Issuer: iss, W: 1400, H: 1400, Seed: rng.Int63()},
					{Kind: "points", Issuer: iss, W: 1200, H: 1200, Threshold: 0.3, Seed: rng.Int63()},
					{Kind: "nn", Issuer: iss, K: 4, NNSamples: 256, Seed: rng.Int63()},
				}
			}

			compare := func(round int, q serve.RequestJSON) {
				got, err := routerEvaluate(ctx, rt, q)
				if err != nil {
					t.Fatalf("round %d: router %s: %v", round, q.Kind, err)
				}
				if got.Partial {
					t.Fatalf("round %d: unexpected partial response (missing %v)", round, got.MissingShards)
				}
				want, err := shardEvaluate(ctx, ref, q)
				if err != nil {
					t.Fatalf("round %d: reference %s: %v", round, q.Kind, err)
				}
				requireSameMatches(t, fmt.Sprintf("round %d: %s", round, q.Kind), got, want)
			}

			for round := range 4 {
				b := batch(25)
				if _, err := rt.ApplyUpdates(ctx, b); err != nil {
					t.Fatalf("round %d: router updates: %v", round, err)
				}
				if _, err := ref.Updates(ctx, b); err != nil {
					t.Fatalf("round %d: reference updates: %v", round, err)
				}
				for _, q := range queries() {
					compare(round, q)
				}
			}
		})
	}
}

// nnFanOutBitExact holds the two-round NN fan-out to the single engine
// on a random tile map over 2–4 shards — a random assign= clause, its
// shards' territories not necessarily contiguous — one of them left
// without points: issuers centred on tile borders, in tile interiors,
// at random, and inside the empty shard (tau1 = +Inf, so round 2 asks
// everyone else unbounded). The gathered tau and candidate set must
// equal the reference engine's own collection stage, and the answer
// its evaluation, Float64bits for Float64bits; an issuer whose tau
// ball stays inside one shard must cost one shard request.
func nnFanOutBitExact(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	world := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10000, 10000)}
	tx, ty, shards := 4+rng.Intn(3), 3+rng.Intn(3), 2+rng.Intn(3)
	spec, _ := randomTileSpec(rng, world, tx, ty, shards)
	m, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	rt := fleet(t, shards, onTiles(m))
	srv, ref := rt.ref, rt.refc
	ctx := t.Context()

	empty := rng.Intn(shards)
	var ups []serve.UpdateJSON
	var pts []geom.Point
	for id := int64(0); len(pts) < 160; id++ {
		// A few points outside the world: they live in the clamped edge
		// tiles.
		p := geom.Pt(rng.Float64()*11000-500, rng.Float64()*11000-500)
		if m.ShardOf(p) == empty {
			continue
		}
		pts = append(pts, p)
		ups = append(ups, serve.UpdateJSON{Op: "upsert_point", ID: id, X: p.X, Y: p.Y})
	}
	rt.apply(t, serve.UpdatesRequest{Updates: ups})

	requests := func() (n int64) {
		for _, c := range rt.shards {
			n += rt.m.requests.With(c.ID).Value()
		}
		return n
	}
	// compare runs one issuer through both sides and returns how many
	// shard requests the router spent on the evaluation.
	compare := func(name string, c geom.Point, hw, hh float64) int64 {
		t.Helper()
		u0 := geom.RectCentered(c, hw, hh)
		q := serve.RequestJSON{Kind: "nn", K: 1 + rng.Intn(4), NNSamples: 512, Seed: rng.Int63() | 1,
			Issuer: serve.IssuerJSON{Region: []float64{u0.Lo.X, u0.Lo.Y, u0.Hi.X, u0.Hi.Y}}}
		if rng.Intn(2) == 0 {
			q.Threshold = 0.1
		}
		req, err := q.ToRequest()
		if err != nil {
			t.Fatal(err)
		}

		bufs := getNNBuffers(len(rt.shards))
		defer bufs.release()
		g, err := rt.gatherNN(ctx, q, u0, bufs)
		if err != nil {
			t.Fatalf("%s: gather: %v", name, err)
		}
		snap := srv.Engine().Snapshot()
		want, err := snap.NNCandidates(ctx, req, core.NNCandidateOptions{})
		snap.Close()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(g.tau) != math.Float64bits(want.Tau) {
			t.Fatalf("%s: fleet tau %v, single engine %v", name, g.tau, want.Tau)
		}
		if !slices.Equal(g.cands, want.Candidates) {
			t.Fatalf("%s: fleet gathered %d candidates, single engine %d", name, len(g.cands), len(want.Candidates))
		}

		before := requests()
		got, err := routerEvaluate(ctx, rt, q)
		if err != nil {
			t.Fatalf("%s: router: %v", name, err)
		}
		spent := requests() - before
		wantResp, err := shardEvaluate(ctx, ref, q)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if got.Partial {
			t.Fatalf("%s: unexpected partial response (missing %v)", name, got.MissingShards)
		}
		if got.Cost.Refined != wantResp.Cost.Refined || got.Cost.SamplesUsed != wantResp.Cost.SamplesUsed {
			t.Fatalf("%s: router refined=%d samples=%d, single engine refined=%d samples=%d", name,
				got.Cost.Refined, got.Cost.SamplesUsed, wantResp.Cost.Refined, wantResp.Cost.SamplesUsed)
		}
		requireSameMatches(t, name, got, wantResp)
		return spent
	}

	tw, th := world.Width()/float64(tx), world.Height()/float64(ty)
	for i := 0; i < 12; i++ {
		cx, cy := rng.Intn(tx), rng.Intn(ty)
		border := geom.Pt(float64(cx)*tw, float64(cy)*th)
		compare("border", border, 20+rng.Float64()*300, 20+rng.Float64()*300)
		interior := geom.Pt((float64(cx)+0.5)*tw, (float64(cy)+0.5)*th)
		compare("interior", interior, 20+rng.Float64()*300, 20+rng.Float64()*300)
		compare("random", geom.Pt(rng.Float64()*10000, rng.Float64()*10000), 20+rng.Float64()*600, 20+rng.Float64()*600)
	}

	// Inside the empty shard: its local tau is +Inf.
	for tile, s := range m.assign {
		if s != empty {
			continue
		}
		c := geom.Pt((float64(tile%tx)+0.5)*tw, (float64(tile/tx)+0.5)*th)
		if spent := compare("empty-shard", c, tw/8, th/8); spent != int64(shards) {
			t.Fatalf("issuer in the empty shard: %d shard requests, want all %d shards", spent, shards)
		}
	}

	// A tight issuer on a point deep inside one shard's territory: the
	// tau ball (radius < 3) reaches no other shard.
	oneShard := 0
	for _, p := range pts {
		if len(m.ShardsOverlapping(geom.RectCentered(p, 5, 5))) != 1 {
			continue
		}
		oneShard++
		if spent := compare("one-shard", p, 1, 1); spent != 1 {
			t.Fatalf("issuer at %v reaches one shard but cost %d shard requests", p, spent)
		}
	}
	if oneShard == 0 {
		t.Fatal("no single-shard issuer exercised")
	}
	if rt.m.nnRounds.Count() == 0 || rt.m.nnAsked.Count() != rt.m.nnRounds.Count() {
		t.Fatalf("nn fan-out histograms: rounds observed %d times, shards asked %d times",
			rt.m.nnRounds.Count(), rt.m.nnAsked.Count())
	}
}

// nnTauZeroBitExact puts a degenerate issuer exactly on a point, so the
// global tau is 0, next to a border where round 2 fires. That needs a
// world in subnormal coordinates: the router widens the tau ball by the
// smallest float above tau1, and only there does a step that small
// reach another tile. The round-2 shard is sent tau_bound 0, which means
// no bound, so it collects under its own tau; the router must still
// filter its list, or a point beyond tau 0 joins the candidates.
func nnTauZeroBitExact(t *testing.T) {
	const e = math.SmallestNonzeroFloat64
	m, err := Uniform(geom.Rect{Lo: geom.Pt(-1000*e, -1000*e), Hi: geom.Pt(1000*e, 1000*e)}, 2, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt := fleet(t, 2, onTiles(m))
	srv, ref := rt.ref, rt.refc
	ctx := t.Context()

	// The issuer's point sits on the border and belongs to tile 1; the
	// lowest id is the nearest point across it, which would win every
	// sample's distance tie (squares of subnormals are 0) were it let in.
	pts := []geom.Point{{X: -3 * e}, {X: 0}, {X: -500 * e, Y: 100 * e}, {X: 7 * e}, {X: 400 * e, Y: -300 * e}}
	var ups []serve.UpdateJSON
	for id, p := range pts {
		ups = append(ups, serve.UpdateJSON{Op: "upsert_point", ID: int64(id), X: p.X, Y: p.Y})
	}
	if m.ShardOf(pts[0]) == m.ShardOf(pts[1]) {
		t.Fatalf("points %v and %v share shard %d", pts[0], pts[1], m.ShardOf(pts[0]))
	}
	rt.apply(t, serve.UpdatesRequest{Updates: ups})

	u0 := geom.Rect{Lo: pts[1], Hi: pts[1]}
	q := serve.RequestJSON{Kind: "nn", K: 2, NNSamples: 300, Seed: 31,
		Issuer: serve.IssuerJSON{Region: []float64{u0.Lo.X, u0.Lo.Y, u0.Hi.X, u0.Hi.Y}}}
	req, err := q.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	bufs := getNNBuffers(len(rt.shards))
	defer bufs.release()
	g, err := rt.gatherNN(ctx, q, u0, bufs)
	if err != nil {
		t.Fatal(err)
	}
	if g.rounds != 2 || g.tau != 0 {
		t.Fatalf("gather took %d rounds to tau %v, want 2 rounds to tau 0", g.rounds, g.tau)
	}
	snap := srv.Engine().Snapshot()
	want, err := snap.NNCandidates(ctx, req, core.NNCandidateOptions{})
	snap.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g.cands, want.Candidates) {
		t.Fatalf("fleet gathered %v, single engine %v", g.cands, want.Candidates)
	}

	got, err := routerEvaluate(ctx, rt, q)
	if err != nil {
		t.Fatal(err)
	}
	wantResp, err := shardEvaluate(ctx, ref, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatalf("unexpected partial response (missing %v)", got.MissingShards)
	}
	if got.Cost.Refined != wantResp.Cost.Refined {
		t.Fatalf("router refined %d candidates, single engine %d", got.Cost.Refined, wantResp.Cost.Refined)
	}
	requireSameMatches(t, "tau-zero", got, wantResp)
}

// TestRouterStraddlerReplication checks the placement on the shards
// directly: a straddling object lands on every overlapping shard, a
// move to a disjoint shard set evicts the stale copies in the same
// batch and leaves one copy, and a final delete clears every replica.
// Every write reaches every shard, so the version vector covers all 4.
func TestRouterStraddlerReplication(t *testing.T) {
	rt := fleet(t, 4)
	ctx := t.Context()

	// On the 4x2 grid with 4 shards, shard 0 owns y<5000, x<5000 and
	// shard 1 owns y<5000, x≥5000 — this straddles their x=5000 border.
	r1 := []float64{4900, 1000, 5100, 1200}
	resp, err := rt.ApplyUpdates(ctx, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
		{Op: "upsert_object", ID: 7, Region: r1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 2 || resp.Missing != 2 {
		t.Fatalf("straddler: physical applied = %d, missing = %d; want 2 replicas and 2 absent evictions", resp.Applied, resp.Missing)
	}
	if len(resp.Versions) != 4 {
		t.Fatalf("version vector covers %d shards, want 4: %v", len(resp.Versions), resp.Versions)
	}

	// holders lists the shards whose engines hold object 7.
	holders := func() []int {
		var in []int
		for i, s := range rt.servers {
			if _, ok := s.Engine().Object(7); ok {
				in = append(in, i)
			}
		}
		return in
	}
	if in := holders(); !slices.Equal(in, []int{0, 1}) {
		t.Fatalf("straddler held on shards %v, want [0 1]", in)
	}

	// Move entirely into shard 3's territory (x in [7500, 10000)): one
	// router batch must upsert there and delete both stale replicas.
	r2 := []float64{8000, 6000, 8100, 6100}
	resp, err = rt.ApplyUpdates(ctx, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
		{Op: "upsert_object", ID: 7, Region: r2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 3 { // 1 upsert + 2 deletes
		t.Fatalf("straddling move: physical applied = %d, want 3", resp.Applied)
	}
	if in := holders(); !slices.Equal(in, []int{3}) {
		t.Fatalf("moved object held on shards %v, want shard 3 alone", in)
	}

	// The object must now answer only from its new home.
	got, err := routerEvaluate(ctx, rt, serve.RequestJSON{
		Kind:   "uncertain",
		Issuer: serve.IssuerJSON{Region: []float64{7900, 5900, 8200, 6200}},
		W:      600, H: 600, Threshold: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Matches) != 1 || got.Matches[0].ID != 7 {
		t.Fatalf("moved object not found where it should be: %v", got.Matches)
	}
	old, err := routerEvaluate(ctx, rt, serve.RequestJSON{
		Kind:   "uncertain",
		Issuer: serve.IssuerJSON{Region: []float64{4800, 900, 5200, 1300}},
		W:      600, H: 600, Threshold: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Matches) != 0 {
		t.Fatalf("stale replica still answering at the old location: %v", old.Matches)
	}

	if _, err := rt.ApplyUpdates(ctx, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
		{Op: "delete_object", ID: 7},
	}}); err != nil {
		t.Fatal(err)
	}
	if in := holders(); in != nil {
		t.Fatalf("deleted object still held on shards %v", in)
	}
}

// TestColdRouterEvictsStaleCopies: a router restarted over a loaded
// fleet knows nothing of where the old one placed a point and an
// object, yet its moves of both across the y=5000 shard border leave no
// copy at the old place: the fleet answers as the single engine does.
func TestColdRouterEvictsStaleCopies(t *testing.T) {
	rt := fleet(t, 2)
	rt.apply(t, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
		{Op: "upsert_object", ID: 1, Region: []float64{1100, 1400, 1300, 1600}},
		{Op: "upsert_point", ID: 1, X: 1200, Y: 1500},
		{Op: "upsert_point", ID: 2, X: 8600, Y: 8200},
	}})
	rt.restartRouter(t)
	rt.apply(t, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
		{Op: "upsert_object", ID: 1, Region: []float64{8500, 8100, 8700, 8300}},
		{Op: "upsert_point", ID: 1, X: 8650, Y: 8250},
	}})
	rt.converged(t)
}

// TestRouterRejectedBatchLeavesCacheAlone: a batch the router rejects
// reaches no shard, so it must not move the ownership cache either.
// Here the rejected batch claims to move a point and an object across a
// shard boundary before its malformed last update; if the cache
// believed it, the next real move would delete from the shard that
// never saw the object and leave the true old copy behind — stale range
// and NN answers. After a following valid batch the fleet must still
// equal the single engine bit for bit.
func TestRouterRejectedBatchLeavesCacheAlone(t *testing.T) {
	rt := fleet(t, 4)
	ctx := t.Context()

	// Shard 0 owns x<5000, y<5000 on the 4x2 grid with 4 shards; the
	// far points keep NN candidate sets non-trivial.
	rt.apply(t, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
		{Op: "upsert_point", ID: 1, X: 1000, Y: 1000},
		{Op: "upsert_point", ID: 2, X: 1400, Y: 1300},
		{Op: "upsert_point", ID: 3, X: 8200, Y: 6100},
		{Op: "upsert_object", ID: 1, Region: []float64{900, 900, 1100, 1100}},
	}})

	bad := serve.UpdatesRequest{Updates: []serve.UpdateJSON{
		{Op: "upsert_point", ID: 1, X: 8000, Y: 6000},
		{Op: "upsert_object", ID: 1, Region: []float64{7900, 5900, 8100, 6100}},
		{Op: "upsert_object", ID: 9, Region: []float64{1, 2}}, // malformed
	}}
	var reqErr *core.RequestError
	if _, err := rt.ApplyUpdates(ctx, bad); !errors.As(err, &reqErr) {
		t.Fatalf("malformed batch: err = %v, want a *core.RequestError", err)
	}

	// Move both again, for real, into a third shard.
	rt.apply(t, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
		{Op: "upsert_point", ID: 1, X: 6000, Y: 1000},
		{Op: "upsert_object", ID: 1, Region: []float64{5900, 900, 6100, 1100}},
	}})

	for _, c := range [][2]float64{{1000, 1000}, {6000, 1000}, {8000, 6000}} {
		iss := serve.IssuerJSON{Region: []float64{c[0] - 200, c[1] - 200, c[0] + 200, c[1] + 200}}
		for _, q := range []serve.RequestJSON{
			{Kind: "points", Issuer: iss, W: 600, H: 600, Seed: 5},
			{Kind: "uncertain", Issuer: iss, W: 600, H: 600, Seed: 6},
			{Kind: "nn", Issuer: iss, K: 3, NNSamples: 256, Seed: 7},
		} {
			got, err := routerEvaluate(ctx, rt, q)
			if err != nil {
				t.Fatalf("router %s at %v: %v", q.Kind, c, err)
			}
			want, err := shardEvaluate(ctx, rt.refc, q)
			if err != nil {
				t.Fatalf("reference %s at %v: %v", q.Kind, c, err)
			}
			requireSameMatches(t, fmt.Sprintf("%s at %v", q.Kind, c), got, want)
		}
	}
}

// TestRouterReplyBytesMetric: every fan-out op's shard reply sizes land
// in ildq_router_shard_reply_bytes under its op label — for NN, the
// frame's bytes exactly — and the router's exposition stays lint-clean.
func TestRouterReplyBytesMetric(t *testing.T) {
	rt := fleet(t, 2)
	ctx := t.Context()
	if _, err := rt.ApplyUpdates(ctx, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
		{Op: "upsert_point", ID: 1, X: 1000, Y: 1000},
		{Op: "upsert_point", ID: 2, X: 1010, Y: 1000},
	}}); err != nil {
		t.Fatal(err)
	}
	nn := serve.RequestJSON{Kind: "nn", K: 1, NNSamples: 64, Seed: 5,
		Issuer: serve.IssuerJSON{Region: []float64{900, 900, 1100, 1100}}}
	if _, err := routerEvaluate(ctx, rt, nn); err != nil {
		t.Fatal(err)
	}
	rng := serve.RequestJSON{Kind: "points", W: 500, H: 500, Threshold: 0.01,
		Issuer: serve.IssuerJSON{Region: []float64{900, 900, 1100, 1100}}}
	if _, err := routerEvaluate(ctx, rt, rng); err != nil {
		t.Fatal(err)
	}
	if status, body := postJSON(t, rt.front.URL+"/v1/queries", rng); status != http.StatusCreated {
		t.Fatalf("register: HTTP %d %s", status, body)
	}

	set, err := rt.shards[0].NNCandidates(ctx, serve.NNCandidatesRequest{Request: nn}, nil)
	if err != nil {
		t.Fatal(err)
	}
	frame := float64(len(wire.AppendNNCandidateSet(nil, set)))
	if h := rt.m.replyBytes.With("nn"); h.Count() != 2 || h.Sum() != 2*frame {
		t.Errorf("op=nn: %d replies, %v bytes; want 2 replies of the %v-byte frame", h.Count(), h.Sum(), frame)
	}
	if h := rt.m.replyBytes.With("updates"); h.Count() != 2 || h.Sum() <= 0 {
		t.Errorf("op=updates: %d replies, %v bytes; want one non-empty reply per shard", h.Count(), h.Sum())
	}
	for _, op := range []string{"evaluate", "register"} {
		if h := rt.m.replyBytes.With(op); h.Count() != 1 || h.Sum() <= 0 {
			t.Errorf("op=%s: %d replies, %v bytes; want one non-empty reply", op, h.Count(), h.Sum())
		}
	}
	var text bytes.Buffer
	if err := rt.m.reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if errs := obs.Lint(text.Bytes()); len(errs) != 0 {
		t.Errorf("router exposition fails lint: %v", errs)
	}
	if !strings.Contains(text.String(), `ildq_router_shard_reply_bytes_count{op="nn"} 2`) {
		t.Errorf("exposition lacks the nn reply-bytes series:\n%s", text.String())
	}
	if !strings.Contains(text.String(), "# TYPE go_gc_heap_live_bytes gauge") {
		t.Errorf("exposition lacks the live-heap gauge:\n%s", text.String())
	}
}

// shardReply is a shard's evaluate reply carrying ms, in the layout a
// shard writes, as the router reads it.
func shardReply(t *testing.T, version uint64, ms []serve.MatchJSON) serve.EvaluateReply {
	t.Helper()
	body, err := json.Marshal(serve.EvaluateResponse{Kind: "uncertain", Version: version, Matches: ms})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := serve.DecodeEvaluateReply(body)
	if err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	return rep
}

// TestMergeMatches pins the relay's merge at the edges the bit-exactness
// trace only reaches by luck: replica copies across three lists
// collapse to one, order is the engine's (P descending, then id), a
// lone list comes through whole, and no list at all is an empty answer
// rather than a JSON null.
func TestMergeMatches(t *testing.T) {
	a := []serve.MatchJSON{{ID: 4, P: 0.9}, {ID: 2, P: 0.5}, {ID: 9, P: 0.5}}
	b := []serve.MatchJSON{{ID: 7, P: 1}, {ID: 2, P: 0.5}, {ID: 3, P: 0.1}}
	c := []serve.MatchJSON{{ID: 2, P: 0.5}}
	merged := func(lists ...[]serve.MatchJSON) []serve.MatchJSON {
		t.Helper()
		replies := make([]serve.EvaluateReply, len(lists))
		for i, l := range lists {
			replies[i] = shardReply(t, uint64(i), l)
		}
		ans := answer{resp: serve.EvaluateResponse{Kind: "uncertain"}, replies: replies, stop: func() {}}
		body, err := ans.appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		var out serve.EvaluateResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%v: %s", err, body)
		}
		return out.Matches
	}
	want := []serve.MatchJSON{{ID: 7, P: 1}, {ID: 4, P: 0.9}, {ID: 2, P: 0.5}, {ID: 9, P: 0.5}, {ID: 3, P: 0.1}}
	if got := merged(a, nil, b, c); !slices.Equal(got, want) {
		t.Errorf("merged %v, want %v", got, want)
	}
	if got := merged(nil, a, []serve.MatchJSON{}); !slices.Equal(got, a) {
		t.Errorf("a lone list came through as %v", got)
	}
	for _, lists := range [][][]serve.MatchJSON{nil, {nil, {}}} {
		if got := merged(lists...); got == nil || len(got) != 0 {
			t.Errorf("lists %v merged to %#v, want an empty non-nil list", lists, got)
		}
	}
}

// TestRelayedAnswerIsSortedUnion: the router's range answer, written
// from the shards' reply bytes, is byte for byte what encoding/json
// writes for the answer whose match list is the union of the shards'
// lists, sorted in canonical order with equal matches kept once — for
// one to three lists, empty and null ones among them, replicas that
// straddle two or three lists, ties in p that ids decide, and an object
// caught mid-move (one id at two probabilities).
func TestRelayedAnswerIsSortedUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for round := range 3000 {
		pool := make([]serve.MatchJSON, rng.Intn(30))
		for i := range pool {
			pool[i] = serve.MatchJSON{ID: rng.Int63n(60) - 10, P: float64(rng.Intn(12)) / 11}
		}
		slices.SortFunc(pool, serve.CompareMatchJSON)
		pool = slices.CompactFunc(pool, func(a, b serve.MatchJSON) bool { return serve.CompareMatchJSON(a, b) == 0 })

		lists := make([][]serve.MatchJSON, 1+rng.Intn(3))
		replies := make([]serve.EvaluateReply, len(lists))
		union := []serve.MatchJSON{}
		for i := range lists {
			switch rng.Intn(5) {
			case 0: // null
			case 1:
				lists[i] = []serve.MatchJSON{}
			default:
				lists[i] = []serve.MatchJSON{}
				for _, m := range pool {
					if rng.Intn(2) == 0 {
						lists[i] = append(lists[i], m)
					}
				}
				if n := len(lists[i]); n > 0 && rng.Intn(4) == 0 {
					lists[i][n-1].P /= 2 // the same id, moved: not a replica
					slices.SortFunc(lists[i], serve.CompareMatchJSON)
				}
			}
			replies[i] = shardReply(t, uint64(i), lists[i])
			union = append(union, lists[i]...)
		}
		slices.SortStableFunc(union, serve.CompareMatchJSON)
		union = slices.CompactFunc(union, func(a, b serve.MatchJSON) bool { return serve.CompareMatchJSON(a, b) == 0 })

		head := serve.EvaluateResponse{Kind: "uncertain", Version: 9, Cost: serve.CostJSON{Candidates: 3, DurationMS: 0.25}}
		if rng.Intn(3) == 0 {
			head.Partial, head.MissingShards = true, []string{"2"}
		}
		a := answer{resp: head, replies: replies, stop: func() {}}
		got, err := a.appendTo([]byte("prefix"))
		want := head
		want.Matches = union
		wantBody := bytes.NewBufferString("prefix")
		if err := json.NewEncoder(wantBody).Encode(want); err != nil {
			t.Fatal(err)
		}
		if err != nil || !bytes.Equal(got, wantBody.Bytes()) {
			t.Fatalf("round %d, lists %v (err %v):\n got %s\nwant %s", round, lists, err, got, wantBody)
		}
	}
}

// TestRouterNNConcurrentBitExact: NN requests evaluated at once on one
// router, each decoding its shards' candidates into pooled buffers,
// answer bit for bit what the single engine does — no request reads
// another's candidates.
func TestRouterNNConcurrentBitExact(t *testing.T) {
	rt := fleet(t, 2)
	ctx := t.Context()
	rng := rand.New(rand.NewSource(4711))
	var ups []serve.UpdateJSON
	for id := range 400 {
		ups = append(ups, serve.UpdateJSON{Op: "upsert_point", ID: int64(id), X: rng.Float64() * 10000, Y: rng.Float64() * 10000})
	}
	rt.apply(t, serve.UpdatesRequest{Updates: ups})
	const workers, each = 6, 15
	queries := make([][]serve.RequestJSON, workers)
	want := make([][]serve.EvaluateResponse, workers)
	for w := range queries {
		for range each {
			cx, cy := rng.Float64()*9000+500, rng.Float64()*9000+500
			hw := 50 + rng.Float64()*900
			q := serve.RequestJSON{Kind: "nn", K: 1 + rng.Intn(5), NNSamples: 300, Seed: rng.Int63() | 1,
				Issuer: serve.IssuerJSON{Region: []float64{cx - hw, cy - hw, cx + hw, cy + hw}}}
			res, err := shardEvaluate(ctx, rt.refc, q)
			if err != nil {
				t.Fatal(err)
			}
			queries[w] = append(queries[w], q)
			want[w] = append(want[w], res)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	got := make([][]serve.EvaluateResponse, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range queries[w] {
				res, err := routerEvaluate(ctx, rt, q)
				if err != nil {
					errs[w] = err
					return
				}
				got[w] = append(got[w], res)
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for i := range want[w] {
			requireSameMatches(t, fmt.Sprintf("worker %d query %d", w, i), got[w][i], want[w][i])
		}
	}
}
