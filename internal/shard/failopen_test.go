package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/serve"
)

// downFleet builds a 2-shard fleet and kills shard 1's process.
func downFleet(t *testing.T) *Router {
	t.Helper()
	rt := fleet(t, 2)
	// Point shard 1 at a dead endpoint with a tight retry budget so
	// the test exercises the backoff path without waiting on it.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rt.shards[1].BaseURL = dead.URL
	rt.shards[1].Retry = RetryPolicy{Attempts: 2, Backoff: time.Millisecond, MaxBackoff: time.Millisecond}
	return rt
}

// TestRouterFailOpen: a dead shard degrades the responses it was asked
// to contribute to — Partial:true with the missing shard listed —
// instead of failing the request. For NN that is narrower than it used
// to be: the router no longer asks the whole fleet, so a dead shard
// beyond the tau ball's reach leaves the answer complete.
func TestRouterFailOpen(t *testing.T) {
	rt := downFleet(t)
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
	ts := httptest.NewServer(NewServer(rt))
	t.Cleanup(ts.Close)

	// A guard region spanning both shards.
	reg, err := http.Post(ts.URL+"/v1/queries", "application/json", strings.NewReader(`{
		"issuer": {"region": [4000, 4000, 6000, 6000]}, "w": 2500, "h": 2500, "threshold": 0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	var regBody serve.RegisterResponse
	if err := json.NewDecoder(reg.Body).Decode(&regBody); err != nil {
		t.Fatal(err)
	}
	reg.Body.Close()
	if reg.StatusCode != http.StatusCreated {
		t.Fatalf("register: HTTP %d: %+v", reg.StatusCode, regBody)
	}

	// Standing NN is rejected with a structured 400.
	nnReg, err := http.Post(ts.URL+"/v1/queries", "application/json", strings.NewReader(`{
		"kind": "nn", "k": 2, "issuer": {"region": [4000, 4000, 6000, 6000]}}`))
	if err != nil {
		t.Fatal(err)
	}
	nnReg.Body.Close()
	if nnReg.StatusCode != http.StatusBadRequest {
		t.Fatalf("standing nn through router: HTTP %d, want 400", nnReg.StatusCode)
	}

	stream, err := http.Get(ts.URL + "/v1/queries/" + jsonNum(regBody.ID) + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stream.Body.Close() })

	// Objects straddling the y=5000 shard border enter on both shards.
	if _, err := http.Post(ts.URL+"/v1/updates", "application/json", strings.NewReader(`{"updates": [
		{"op": "upsert_object", "id": 10, "region": [4500, 4900, 4700, 5100]},
		{"op": "upsert_object", "id": 11, "region": [5300, 4900, 5500, 5100]}]}`)); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(stream.Body)
	shardsSeen := map[string]uint64{}
	entered := map[int64]bool{}
	deadline := time.After(10 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") || line == "data: {}" {
				continue
			}
			var d serve.DeltaJSON
			if json.Unmarshal([]byte(line[len("data: "):]), &d) != nil {
				continue
			}
			if d.Shard == "" {
				continue
			}
			// Skip the registration frame (legitimately version 0 on an
			// empty engine); update deltas must carry the version.
			if d.Version > shardsSeen[d.Shard] {
				shardsSeen[d.Shard] = d.Version
			}
			for _, m := range d.Entered {
				entered[m.ID] = true
			}
			if entered[10] && entered[11] && shardsSeen["0"] > 0 && shardsSeen["1"] > 0 {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatalf("stream timed out; shards=%v entered=%v", shardsSeen, entered)
	}
	for shard, v := range shardsSeen {
		if v == 0 {
			t.Errorf("shard %s frame carried version 0 — version vector missing", shard)
		}
	}

	// A budget refusal at the router is the same 400, with the same
	// hint, as a standalone server's (one HTTP helper set).
	rt.maxSamples = 1
	if _, err := http.Post(ts.URL+"/v1/updates", "application/json", strings.NewReader(`{"updates": [
		{"op": "upsert_point", "id": 1, "x": 4800, "y": 5000},
		{"op": "upsert_point", "id": 2, "x": 5200, "y": 5000}]}`)); err != nil {
		t.Fatal(err)
	}
	over, err := http.Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(`{
		"kind": "nn", "k": 1, "issuer": {"region": [4000, 4000, 6000, 6000]}}`))
	if err != nil {
		t.Fatal(err)
	}
	var overBody map[string]string
	if err := json.NewDecoder(over.Body).Decode(&overBody); err != nil {
		t.Fatal(err)
	}
	over.Body.Close()
	if over.StatusCode != http.StatusBadRequest || !strings.Contains(overBody["error"], "shrink the issuer region or nn_samples") {
		t.Fatalf("over-budget nn through router: HTTP %d %q, want 400 with the budget hint", over.StatusCode, overBody["error"])
	}
}

func jsonNum(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestRouterRepliesCarryContentLength: like ildq-serve's, every JSON
// reply of the router is sent whole — a Content-Length that is the
// body's length, no chunking — error replies and degraded health
// included.
func TestRouterRepliesCarryContentLength(t *testing.T) {
	rt := fleet(t, 2)
	ts := httptest.NewServer(NewServer(rt))
	t.Cleanup(ts.Close)

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
		req, err := http.NewRequest(step.method, ts.URL+step.path, strings.NewReader(step.body))
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

// postStatus posts body to url and returns the status and the error
// reply's message.
func postStatus(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply struct{ Error string }
	json.NewDecoder(resp.Body).Decode(&reply) //nolint:errcheck // a success body has no error to read
	return resp.StatusCode, reply.Error
}

// TestRouterRequestBodies: the router refuses a client's body as a
// standalone server does — an unknown field in an update batch or a
// query is a 400 naming it, a key twice or bytes after the value a 400
// on the query endpoints, a body past serve.MaxBodyBytes a 413 on the
// query decoder and on the /v1/updates reader alike — and serves one
// exactly at the cap.
func TestRouterRequestBodies(t *testing.T) {
	rt := fleet(t, 2)
	ts := httptest.NewServer(NewServer(rt))
	t.Cleanup(ts.Close)

	status, msg := postStatus(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_object", "id": 7, "regoin": [480, 480, 520, 520]}]}`)
	if status != http.StatusBadRequest || msg != `json: unknown field "regoin"` {
		t.Errorf("updates with unknown field: HTTP %d %q, want 400 naming regoin", status, msg)
	}
	for _, path := range []string{"/v1/evaluate", "/v1/queries"} {
		for name, body := range map[string]string{
			"unknown field": `{"issuer":{"region":[450,450,550,550]},"w":100,"h":100,"treshold":0.5}`,
			"key twice":     `{"issuer":{"region":[450,450,550,550]},"w":100,"h":100,"w":200}`,
			"bytes after":   `{"issuer":{"region":[450,450,550,550]},"w":100,"h":100} {}`,
		} {
			if status, msg := postStatus(t, ts.URL+path, body); status != http.StatusBadRequest || name == "unknown field" && !strings.Contains(msg, "treshold") {
				t.Errorf("%s, %s: HTTP %d %q, want 400", path, name, status, msg)
			}
		}
	}

	for path, value := range map[string][2]string{
		"/v1/evaluate": {`{"issuer":{"region":[450,450,550,550]},"w":100,`, `"h":100}`},
		"/v1/updates":  {`{"updates":[`, `{"op":"delete_point","id":1}]}`},
	} {
		// Whitespace inside the one value, so no decoder stops early.
		pad := func(n int) string { return value[0] + strings.Repeat(" ", n-len(value[0])-len(value[1])) + value[1] }
		if status, msg := postStatus(t, ts.URL+path, pad(serve.MaxBodyBytes+1)); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s past the cap: HTTP %d %q, want 413", path, status, msg)
		}
		if status, msg := postStatus(t, ts.URL+path, pad(serve.MaxBodyBytes)); status != http.StatusOK {
			t.Errorf("%s at the cap: HTTP %d %q, want 200", path, status, msg)
		}
	}
}

// TestRouterRefusesNonFiniteRegions: the router refuses an issuer or
// object region whose extent overflows float64 with the 400 a
// standalone server gives — an update before it routes the batch.
func TestRouterRefusesNonFiniteRegions(t *testing.T) {
	rt := fleet(t, 2)
	ts := httptest.NewServer(NewServer(rt))
	t.Cleanup(ts.Close)
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
			if status, msg := postStatus(t, ts.URL+path, body); status != http.StatusBadRequest || !strings.Contains(msg, "not finite") {
				t.Errorf("%s %s: HTTP %d %q, want a 400 saying not finite", path, body, status, msg)
			}
		}
	}
}

// streamFleet is a router over stand-in shards, one per handler, and
// its HTTP front, with router query 1 registered on every shard: each
// stand-in answers the registration as its query 7, and its handler
// serves the rest — the delta feed.
func streamFleet(t *testing.T, shards ...http.HandlerFunc) (rt *Router, url string) {
	t.Helper()
	clients := make([]*Client, len(shards))
	for i, h := range shards {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/queries" {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusCreated)
				io.WriteString(w, `{"id":7,"kind":"uncertain","snapshot":[]}`+"\n") //nolint:errcheck // test server
				return
			}
			h(w, r)
		}))
		t.Cleanup(ts.Close)
		clients[i] = &Client{ID: fmt.Sprint(i), BaseURL: ts.URL, Retry: RetryPolicy{Attempts: 1}}
	}
	m, err := Uniform(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10000, 10000)}, 4, 2, len(shards))
	if err != nil {
		t.Fatal(err)
	}
	if rt, err = NewRouter(m, clients, Config{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	reg, _, err := routerRegister(t.Context(), rt, serve.RequestJSON{Issuer: serve.IssuerJSON{Region: []float64{100, 100, 9900, 9900}}, W: 100, H: 100})
	if err != nil || reg.ID != 1 {
		t.Fatalf("register: id %d, %v", reg.ID, err)
	}
	ts := httptest.NewServer(NewServer(rt))
	t.Cleanup(ts.Close)
	return rt, ts.URL
}

// shardStream is a stand-in shard's delta feed: the stream headers,
// then write's frames, then what end does (nothing keeps the stream
// open until the router hangs up).
func shardStream(write string, end func(http.ResponseWriter)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/feeds/") || !strings.HasSuffix(r.URL.Path, "/stream") {
			http.NotFound(w, r)
			return
		}
		serve.StartSSE(w)
		io.WriteString(w, write) //nolint:errcheck // test server
		w.(http.Flusher).Flush()
		if end != nil {
			end(w)
			return
		}
		<-r.Context().Done() // a live feed stays open; the router must end it itself
	}
}

// readStream reads the router's stream of query 1 to its end, which the
// router must bring about itself.
func readStream(t *testing.T, url string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/queries/1/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	raw, err := io.ReadAll(stream.Body)
	if err != nil {
		t.Fatalf("subscriber stream did not end cleanly: %v", err)
	}
	return string(raw)
}

// TestRouterStreamCorruptFrame: a shard whose delta feed carries one
// undecodable frame between two good ones. The relay must not hand the
// subscriber a stream with a hole in it — before the fix it skipped the
// frame in silence and forwarded the next one — so it forwards the
// frames up to the bad one, counts and logs the loss, and ends the
// subscriber's stream with an error event; nothing after the hole is
// forwarded.
func TestRouterStreamCorruptFrame(t *testing.T) {
	rt, url := streamFleet(t, shardStream(
		"id: 7\ndata: {\"version\":1,\"entered\":[{\"id\":10,\"p\":0.5}]}\n\n"+
			"id: 7\ndata: {\"version\":2,\"entered\":[{\"id\":11,\n\n"+ // torn frame
			"id: 7\ndata: {\"version\":3,\"entered\":[{\"id\":12,\"p\":0.5}]}\n\n", nil))
	got := readStream(t, url)
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
// hijacks and drops its connection), one that will not open (404, 500)
// — ends the subscriber's stream with an error event and counts the
// member lost; before, the relay let the member go in silence and kept
// forwarding the other shards' frames, so the subscriber replayed an
// answer that was no longer the fleet's. A member's own close event
// still means what it did: the stream ends when every member has
// closed, with a close event.
func TestRouterStreamMemberLost(t *testing.T) {
	live := shardStream("id: 7\ndata: {\"seq\":1,\"version\":1,\"entered\":[{\"id\":10,\"p\":0.5}]}\n\n", nil)
	for name, shard1 := range map[string]http.HandlerFunc{
		"connection dropped": shardStream("id: 7\ndata: {\"seq\":1,\"version\":1,\"entered\":[{\"id\":20,\"p\":0.5}]}\n\n",
			func(w http.ResponseWriter) {
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close()
				}
			}),
		"ended without close": shardStream("id: 7\ndata: {\"seq\":1,\"version\":1,\"entered\":[{\"id\":20,\"p\":0.5}]}\n\n",
			func(http.ResponseWriter) {}),
		"stream open 404": http.NotFound,
		"stream open 500": func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		},
	} {
		t.Run(name, func(t *testing.T) {
			rt, url := streamFleet(t, live, shard1)
			got := readStream(t, url)
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

	closing := func(id int) http.HandlerFunc {
		return shardStream(fmt.Sprintf("id: 7\ndata: {\"seq\":1,\"version\":1,\"entered\":[{\"id\":%d,\"p\":0.5}]}\n\nid: 7\nevent: close\ndata: {}\n\n", id), func(http.ResponseWriter) {})
	}
	rt, url := streamFleet(t, closing(10), closing(20))
	got := readStream(t, url)
	if !strings.Contains(got, `"id":10`) || !strings.Contains(got, `"id":20`) || !strings.HasSuffix(got, "event: close\ndata: {}\n\n") || strings.Contains(got, "event: error") {
		t.Errorf("members that closed: want both frames, then a close event:\n%s", got)
	}
	if v := rt.m.membersLost.With("0").Value() + rt.m.membersLost.With("1").Value(); v != 0 {
		t.Errorf("members that closed were counted lost %v times", v)
	}
}
