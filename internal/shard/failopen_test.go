package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestRouterFailOpen: a dead shard degrades the responses it was asked
// to contribute to — Partial:true with the missing shard listed —
// instead of failing the request. For NN that is narrower than it used
// to be: the router no longer asks the whole fleet, so a dead shard
// beyond the tau ball's reach leaves the answer complete.
func TestRouterFailOpen(t *testing.T) {
	rt := fleet(t, 2)
	rt.faults.arm(&fault{shard: 1, kind: dropRequest}) // shard 1 is down
	ctx := t.Context()

	// Seed a point on the live shard (row 0: y < 5000 → shard 0).
	if _, err := rt.ApplyUpdates(ctx, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
		{Op: "upsert_point", ID: 1, X: 1000, Y: 1000},
	}}); err != nil {
		t.Fatal(err)
	}

	// A wide query must fan to both shards; the dead one goes missing.
	got, err := routerEvaluate(ctx, rt, serve.RequestJSON{
		Kind:   "points",
		Issuer: serve.IssuerJSON{Region: []float64{500, 500, 9500, 9500}},
		W:      2000, H: 2000, Threshold: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Partial || !slices.Contains(got.MissingShards, "1") {
		t.Fatalf("want Partial with shard 1 missing, got partial=%v missing=%v", got.Partial, got.MissingShards)
	}
	if len(got.Matches) != 1 || got.Matches[0].ID != 1 {
		t.Fatalf("live shard's answer should survive fail-open: %v", got.Matches)
	}

	// NN asks only the shards the tau ball can reach. The point is 141
	// away from this issuer's far corner and the dead shard's tiles
	// start 3900 away: the dead shard is not asked, and the answer is
	// complete, not partial.
	nn, err := routerEvaluate(ctx, rt, serve.RequestJSON{
		Kind:   "nn",
		Issuer: serve.IssuerJSON{Region: []float64{900, 900, 1100, 1100}},
		K:      1, NNSamples: 64, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nn.Partial || nn.MissingShards != nil {
		t.Fatalf("nn out of the dead shard's reach: partial=%v missing=%v, want a complete answer", nn.Partial, nn.MissingShards)
	}
	if len(nn.Matches) != 1 || nn.Matches[0].ID != 1 || nn.Matches[0].P != 1 {
		t.Fatalf("nn out of the dead shard's reach: matches=%v, want point 1 with probability 1", nn.Matches)
	}

	// From just below the y=5000 border the same point is ~3900 away,
	// so the tau ball crosses into the dead shard's tiles: a nearer
	// point could be hiding there, and the answer says so.
	nn, err = routerEvaluate(ctx, rt, serve.RequestJSON{
		Kind:   "nn",
		Issuer: serve.IssuerJSON{Region: []float64{900, 4700, 1100, 4900}},
		K:      1, NNSamples: 64, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !nn.Partial || !slices.Contains(nn.MissingShards, "1") {
		t.Fatalf("nn within tau of the dead shard: partial=%v missing=%v, want shard 1 missing", nn.Partial, nn.MissingShards)
	}
	if len(nn.Matches) != 1 || nn.Matches[0].ID != 1 {
		t.Fatalf("nn within tau of the dead shard: the live shard's answer should survive: %v", nn.Matches)
	}

	// An update batch touching the dead shard reports it missing but
	// commits on the live one, with the version vector covering only
	// responders.
	up, err := rt.ApplyUpdates(ctx, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
		{Op: "upsert_point", ID: 2, X: 1200, Y: 1200},
		{Op: "upsert_point", ID: 3, X: 1200, Y: 8000}, // dead shard's territory (row 1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !up.Partial || !slices.Contains(up.MissingShards, "1") {
		t.Fatalf("updates: want Partial with shard 1 missing, got %+v", up)
	}
	if _, ok := up.Versions["0"]; !ok {
		t.Fatalf("version vector lost the live shard: %v", up.Versions)
	}
	if _, ok := up.Versions["1"]; ok {
		t.Fatalf("version vector invented an entry for the dead shard: %v", up.Versions)
	}

	// The fleet health report flags the dead member.
	rep := rt.Health(ctx)
	if rep.Status != "degraded" || rep.Shards["1"].Status != "unreachable" {
		t.Fatalf("health report: %+v", rep)
	}
	if rep.Shards["0"].Status != "ok" {
		t.Fatalf("live shard misreported: %+v", rep.Shards["0"])
	}

	// Retry/failure counters moved for the dead shard.
	if rt.m.failures.With("1").Value() == 0 {
		t.Error("failure counter for the dead shard never moved")
	}
	if rt.m.retries.With("1").Value() == 0 {
		t.Error("retry counter for the dead shard never moved")
	}
	if rt.m.partial.Value() == 0 {
		t.Error("partial counter never moved")
	}
}

// TestRouterServerStream drives the router's HTTP front end to end:
// register a standing query over the fleet, ingest updates through the
// router, and check the multiplexed SSE stream carries shard-tagged
// frames with per-shard engine versions — and that its error replies
// match a standalone server's.
func TestRouterServerStream(t *testing.T) {
	rt := fleet(t, 2)
	url := rt.front.URL

	// A guard region spanning both shards.
	regBody, _ := rt.ask(t, "/v1/queries", serve.RequestJSON{
		Issuer: serve.IssuerJSON{Region: []float64{4000, 4000, 6000, 6000}}, W: 2500, H: 2500, Threshold: 0.05})

	// Standing NN is rejected with a structured 400.
	if status, _ := postJSON(t, url+"/v1/queries", `{
		"kind": "nn", "k": 2, "issuer": {"region": [4000, 4000, 6000, 6000]}}`); status != http.StatusBadRequest {
		t.Fatalf("standing nn through router: HTTP %d, want 400", status)
	}

	stream := openSubscriber(t, url, regBody.ID)

	// Objects straddling the y=5000 shard border enter on both shards.
	postJSON(t, url+"/v1/updates", `{"updates": [
		{"op": "upsert_object", "id": 10, "region": [4500, 4900, 4700, 5100]},
		{"op": "upsert_object", "id": 11, "region": [5300, 4900, 5500, 5100]}]}`)

	// The registration frame is legitimately version 0 on an empty
	// engine; update deltas must carry the version.
	entered, shardsSeen := stream.replay(t)
	for deadline := time.Now().Add(10 * time.Second); entered[10] == 0 || entered[11] == 0 || shardsSeen["0"] == 0 || shardsSeen["1"] == 0; entered, shardsSeen = stream.replay(t) {
		if time.Now().After(deadline) {
			t.Fatalf("stream timed out; shards=%v entered=%v", shardsSeen, entered)
		}
		time.Sleep(time.Millisecond)
	}
	for shard, v := range shardsSeen {
		if v == 0 {
			t.Errorf("shard %s frame carried version 0 — version vector missing", shard)
		}
	}

	// A budget refusal at the router is the same 400, with the same
	// hint, as a standalone server's (one HTTP helper set).
	rt.maxSamples = 1
	postJSON(t, url+"/v1/updates", `{"updates": [
		{"op": "upsert_point", "id": 1, "x": 4800, "y": 5000},
		{"op": "upsert_point", "id": 2, "x": 5200, "y": 5000}]}`)
	status, body := postJSON(t, url+"/v1/evaluate", `{
		"kind": "nn", "k": 1, "issuer": {"region": [4000, 4000, 6000, 6000]}}`)
	if status != http.StatusBadRequest || !strings.Contains(errorText(body), "shrink the issuer region or nn_samples") {
		t.Fatalf("over-budget nn through router: HTTP %d %q, want 400 with the budget hint", status, errorText(body))
	}
}

// TestRouterRepliesCarryContentLength: like ildq-serve's, every JSON
// reply of the router is sent whole — a Content-Length that is the
// body's length, no chunking — error replies and degraded health
// included.
func TestRouterRepliesCarryContentLength(t *testing.T) {
	rt := fleet(t, 2)

	var updates []string
	for id := range 300 {
		// A column across the y=5000 shard border: both shards answer.
		updates = append(updates, fmt.Sprintf(`{"op":"upsert_object","id":%d,"region":[1000,%d,1040,%d]}`, id, 4700+2*id, 4740+2*id))
	}
	const query = `{"issuer":{"region":[950,4950,1050,5050]},"w":900,"h":900}`
	for _, step := range []struct{ what, method, path, body string }{
		{"updates", http.MethodPost, "/v1/updates", `{"updates":[` + strings.Join(updates, ",") + `]}`},
		{"evaluate", http.MethodPost, "/v1/evaluate", query},
		{"register", http.MethodPost, "/v1/queries", query},
		{"healthz", http.MethodGet, "/healthz", ""},
		{"bad request", http.MethodPost, "/v1/evaluate", `{"w":1}`},
		{"no such query", http.MethodGet, "/v1/queries/99/stream", ""},
	} {
		req, err := http.NewRequest(step.method, rt.front.URL+step.path, strings.NewReader(step.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 || !json.Valid(body) {
			t.Errorf("%s: HTTP %d, Content-Length %d, Transfer-Encoding %v for a body of %d bytes: %.80q",
				step.what, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(body), body)
		}
		if step.what == "evaluate" && (len(body) < 4096 || resp.StatusCode != http.StatusOK) {
			t.Errorf("evaluate: HTTP %d with %d bytes: too small to have been chunked before", resp.StatusCode, len(body))
		}
	}
}

// TestRouterRequestBodies: the router refuses a client's body as a
// standalone server does — an unknown field in an update batch or a
// query is a 400 naming it, a key twice or bytes after the value a 400
// on the query endpoints, a body past serve.MaxBodyBytes a 413 on the
// query decoder and on the /v1/updates reader alike — and serves one
// exactly at the cap.
func TestRouterRequestBodies(t *testing.T) {
	url := fleet(t, 2).front.URL

	status, body := postJSON(t, url+"/v1/updates", `{"updates": [
		{"op": "upsert_object", "id": 7, "regoin": [480, 480, 520, 520]}]}`)
	if msg := errorText(body); status != http.StatusBadRequest || msg != `json: unknown field "regoin"` {
		t.Errorf("updates with unknown field: HTTP %d %q, want 400 naming regoin", status, msg)
	}
	for _, path := range []string{"/v1/evaluate", "/v1/queries"} {
		for name, body := range map[string]string{
			"unknown field": `{"issuer":{"region":[450,450,550,550]},"w":100,"h":100,"treshold":0.5}`,
			"key twice":     `{"issuer":{"region":[450,450,550,550]},"w":100,"h":100,"w":200}`,
			"bytes after":   `{"issuer":{"region":[450,450,550,550]},"w":100,"h":100} {}`,
		} {
			if status, reply := postJSON(t, url+path, body); status != http.StatusBadRequest || name == "unknown field" && !strings.Contains(errorText(reply), "treshold") {
				t.Errorf("%s, %s: HTTP %d %q, want 400", path, name, status, errorText(reply))
			}
		}
	}

	for path, value := range map[string][2]string{
		"/v1/evaluate": {`{"issuer":{"region":[450,450,550,550]},"w":100,`, `"h":100}`},
		"/v1/updates":  {`{"updates":[`, `{"op":"delete_point","id":1}]}`},
	} {
		// Whitespace inside the one value, so no decoder stops early.
		pad := func(n int) string { return value[0] + strings.Repeat(" ", n-len(value[0])-len(value[1])) + value[1] }
		if status, reply := postJSON(t, url+path, pad(serve.MaxBodyBytes+1)); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s past the cap: HTTP %d %q, want 413", path, status, errorText(reply))
		}
		if status, reply := postJSON(t, url+path, pad(serve.MaxBodyBytes)); status != http.StatusOK {
			t.Errorf("%s at the cap: HTTP %d %q, want 200", path, status, errorText(reply))
		}
	}
}

// TestRouterRefusesNonFiniteRegions: the router refuses an issuer or
// object region whose extent overflows float64 with the 400 a
// standalone server gives — an update before it routes the batch.
func TestRouterRefusesNonFiniteRegions(t *testing.T) {
	url := fleet(t, 2).front.URL
	for path, bodies := range map[string][]string{
		"/v1/evaluate": {
			`{"issuer": {"region": [-1e308, -1e308, 1e308, 1e308]}, "w": 10, "h": 10}`,
			`{"kind": "points", "issuer": {"region": [-1e308, -1e308, 1e308, 1e308]}, "w": 1e308, "h": 1e308}`,
			`{"kind": "nn", "issuer": {"region": [-1e308, -1e308, 1e308, 1e308]}, "k": 1}`,
		},
		"/v1/queries": {
			`{"issuer": {"region": [-1e308, 0, 1e308, 1], "pdf": "gaussian"}, "w": 10, "h": 10}`,
		},
		"/v1/updates": {
			`{"updates": [{"op": "upsert_object", "id": 7, "region": [-1e308, -1e308, 1e308, 1e308]}]}`,
			`{"updates": [{"op": "upsert_point", "id": 1, "x": 5, "y": 5},
				{"op": "upsert_object", "id": 7, "region": [0, -1e308, 1, 1e308], "pdf": "gaussian"}]}`,
		},
	} {
		for _, body := range bodies {
			if status, reply := postJSON(t, url+path, body); status != http.StatusBadRequest || !strings.Contains(errorText(reply), "not finite") {
				t.Errorf("%s %s: HTTP %d %q, want a 400 saying not finite", path, body, status, errorText(reply))
			}
		}
	}
}

// cannedFeeds has the router read feeds[i] as shard i's delta feed and
// registers router query 1 on every shard, each shard's member its query 1.
func (f *testFleet) cannedFeeds(t *testing.T, feeds ...canned) {
	t.Helper()
	for i, c := range feeds {
		f.faults.arm(&fault{shard: i, route: "GET /v1/feeds/", kind: cannedReply, canned: c})
	}
	status, body := postJSON(t, f.front.URL+"/v1/queries", serve.RequestJSON{Issuer: serve.IssuerJSON{Region: []float64{100, 100, 9900, 9900}}, W: 100, H: 100})
	if status != http.StatusCreated || !strings.HasPrefix(string(body), `{"id":1,`) {
		t.Fatalf("register: HTTP %d %s", status, body)
	}
}

// TestRouterStreamCorruptFrame: a shard whose delta feed carries one
// undecodable frame between two good ones. The relay must not hand the
// subscriber a stream with a hole in it — before the fix it skipped the
// frame in silence and forwarded the next one — so it forwards the
// frames up to the bad one, counts and logs the loss, and ends the
// subscriber's stream with an error event; nothing after the hole is
// forwarded.
func TestRouterStreamCorruptFrame(t *testing.T) {
	rt := fleet(t, 1)
	rt.cannedFeeds(t, canned{body: "id: 1\ndata: {\"version\":1,\"entered\":[{\"id\":10,\"p\":0.5}]}\n\n" +
		"id: 1\ndata: {\"version\":2,\"entered\":[{\"id\":11,\n\n" + // torn frame
		"id: 1\ndata: {\"version\":3,\"entered\":[{\"id\":12,\"p\":0.5}]}\n\n", end: endHold})
	got := openSubscriber(t, rt.front.URL, 1).wait(t)
	if !strings.Contains(got, `"version":1`) {
		t.Errorf("frame before the corrupt one was not forwarded:\n%s", got)
	}
	if strings.Contains(got, `"version":3`) {
		t.Errorf("frame after the hole was forwarded — the subscriber would replay over a gap:\n%s", got)
	}
	if !strings.Contains(got, "event: error\n") || !strings.Contains(got, "re-register") {
		t.Errorf("stream did not end with an error event:\n%s", got)
	}
	if v := rt.m.framesDropped.With("0").Value(); v != 1 {
		t.Errorf("ildq_router_stream_frames_dropped_total{shard=\"0\"} = %v, want 1", v)
	}
}

// TestRouterStreamMemberLost: a member stream the relay cannot follow
// to its close event — one that breaks off after a frame (the shard
// drops its connection), one that will not open (404, 500) — ends the
// subscriber's stream with an error event and counts the member lost;
// before, the relay let the member go in silence and kept forwarding
// the other shards' frames, so the subscriber replayed an answer that
// was no longer the fleet's. A member's own close event still means
// what it did: the stream ends when every member has closed, with a
// close event.
func TestRouterStreamMemberLost(t *testing.T) {
	frame := func(id int) string {
		return fmt.Sprintf("id: 1\ndata: {\"seq\":1,\"version\":1,\"entered\":[{\"id\":%d,\"p\":0.5}]}\n\n", id)
	}
	for name, shard1 := range map[string]canned{
		"connection dropped":  {body: frame(20), end: endCut},
		"ended without close": {body: frame(20)},
		"stream open 404":     {status: http.StatusNotFound, body: "404 page not found\n"},
		"stream open 500":     {status: http.StatusInternalServerError, body: "boom\n"},
	} {
		t.Run(name, func(t *testing.T) {
			rt := fleet(t, 2)
			rt.cannedFeeds(t, canned{body: frame(10), end: endHold}, shard1)
			got := openSubscriber(t, rt.front.URL, 1).wait(t)
			if !strings.Contains(got, "event: error\n") || !strings.Contains(got, "re-register") || !strings.Contains(got, "shard 1") {
				t.Errorf("stream did not end with an error event naming shard 1:\n%s", got)
			}
			if strings.HasPrefix(name, "stream open") == strings.Contains(got, `"id":20`) {
				t.Errorf("shard 1's frames were relayed wrong (want its one frame iff it sent one):\n%s", got)
			}
			if v := rt.m.membersLost.With("1").Value(); v != 1 {
				t.Errorf("ildq_router_stream_members_lost_total{shard=\"1\"} = %v, want 1", v)
			}
		})
	}

	closing := func(id int) canned { return canned{body: frame(id) + "id: 1\nevent: close\ndata: {}\n\n"} }
	rt := fleet(t, 2)
	rt.cannedFeeds(t, closing(10), closing(20))
	got := openSubscriber(t, rt.front.URL, 1).wait(t)
	if !strings.Contains(got, `"id":10`) || !strings.Contains(got, `"id":20`) || !strings.HasSuffix(got, "event: close\ndata: {}\n\n") || strings.Contains(got, "event: error") {
		t.Errorf("members that closed: want both frames, then a close event:\n%s", got)
	}
	if v := rt.m.membersLost.With("0").Value() + rt.m.membersLost.With("1").Value(); v != 0 {
		t.Errorf("members that closed were counted lost %v times", v)
	}
}

// TestRouterRetryHealsDrop: on every hop a first attempt dropped before
// the shard saw it is retried and heals — the answer is whole and the
// single engine's — and ildq_router_shard_retries_total counts exactly
// the drops.
func TestRouterRetryHealsDrop(t *testing.T) {
	for _, route := range []string{"POST /v1/evaluate", nnRoute, "POST /v1/updates", "POST /v1/queries", "DELETE /v1/queries/"} {
		t.Run(route, func(t *testing.T) {
			rt := fleet(t, 2)
			moves := func(y float64) serve.UpdatesRequest { // on both shards
				return serve.UpdatesRequest{Updates: []serve.UpdateJSON{{Op: "upsert_point", ID: 1, X: 1000, Y: y},
					{Op: "upsert_point", ID: 2, X: 1100, Y: 10000 - y}, {Op: "upsert_object", ID: 3, Region: []float64{950, y, 1050, y + 400}}}}
			}
			rt.apply(t, moves(4000))
			drops := []*fault{rt.faults.arm(&fault{shard: 0, route: route, times: 1}), rt.faults.arm(&fault{shard: 1, route: route, times: 1})}
			q := straddlingRange
			switch route {
			case "POST /v1/updates":
				rt.apply(t, moves(4500))
			case "POST /v1/queries", "DELETE /v1/queries/":
				got, want := rt.ask(t, "/v1/queries", q)
				rt.deregister(t, got, want)
				if !bytes.Equal(got.Snapshot, want.Snapshot) {
					t.Errorf("snapshot %s, single engine %s", got.Snapshot, want.Snapshot)
				}
			case nnRoute:
				q = serve.RequestJSON{Kind: "nn", Issuer: q.Issuer, K: 1, NNSamples: 64}
				fallthrough
			default:
				if got, want := rt.ask(t, "/v1/evaluate", q); got.Partial || !bytes.Equal(got.Matches, want.Matches) {
					t.Errorf("answer (missing %v) %s, single engine %s", got.Missing, got.Matches, want.Matches)
				}
			}
			for s, drop := range drops {
				if n, retries := drop.hits.Load(), rt.m.retries.With(fmt.Sprint(s)).Value(); n != 1 || retries != 1 {
					t.Errorf("shard %d: %d attempts dropped, %d retries counted; want 1 and 1", s, n, retries)
				}
			}
			rt.converged(t)
		})
	}
}

// TestRouterDeregisterLostReply: a DELETE whose reply is lost after the
// shard removed the query is retried, draws the shard's 404, and counts
// as removed — the client gets 204 and no shard keeps the query. The
// router answers 404 only for an id it does not hold, and 502 naming
// the shard when a member could not be reached.
func TestRouterDeregisterLostReply(t *testing.T) {
	rt := fleet(t, 2)
	register := func() string {
		got, _ := rt.ask(t, "/v1/queries", straddlingRange)
		return fmt.Sprintf("%s/v1/queries/%d", rt.front.URL, got.ID)
	}
	url := register()
	rt.faults.arm(&fault{shard: 1, route: "DELETE /v1/queries/", kind: loseReply, times: 1})
	if status, body := send(t, http.MethodDelete, url, nil); status != http.StatusNoContent {
		t.Fatalf("DELETE whose shard reply was lost: HTTP %d %q, want 204", status, errorText(body))
	}
	for i, s := range rt.servers {
		if n := len(s.mon.Subscriptions()); n != 0 || rt.m.retries.With(fmt.Sprint(i)).Value() != int64(i) {
			t.Errorf("shard %d keeps %d standing queries after %d retries", i, n, rt.m.retries.With(fmt.Sprint(i)).Value())
		}
	}
	if status, body := send(t, http.MethodDelete, url, nil); status != http.StatusNotFound {
		t.Errorf("DELETE of a query the router does not hold: HTTP %d %q, want 404", status, errorText(body))
	}
	url = register()
	rt.faults.arm(&fault{shard: 1, route: "DELETE /v1/queries/"}) // shard 1 is down
	if status, body := send(t, http.MethodDelete, url, nil); status != http.StatusBadGateway || !strings.Contains(errorText(body), "shard 1") {
		t.Errorf("DELETE with a member down: HTTP %d %q, want 502 naming shard 1", status, errorText(body))
	}
}
