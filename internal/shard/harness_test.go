package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/monitor"
	"repro/internal/serve"
)

// testFleet is the fixture every router test runs on: a router over
// real shard servers behind stable URLs, a fault transport under its
// shard clients, its HTTP front, and the single-engine reference fed
// every batch the fleet acknowledged.
type testFleet struct {
	*Router
	servers []*testShard // by shard index
	faults  *faultTransport
	front   *httptest.Server       // serves handler's router
	handler atomic.Pointer[Server] // the front of Router
	ref     *testShard             // the single engine
	refc    *Client                // a client of ref, faults not applied
}

type fleetConfig struct {
	tiles   *TileMap
	durable bool
}

type fleetOption func(*fleetConfig)

// onTiles builds the fleet on m, one shard per shard of m.
func onTiles(m *TileMap) fleetOption { return func(c *fleetConfig) { c.tiles = m } }

// durable puts every shard over a data directory, fsync always, so that
// restart can kill it and start it again from its WAL.
func durable(c *fleetConfig) { c.durable = true }

// fleet boots a router over n ephemeral shards on the uniform 4x2 tile
// map over [0,10000]², unless options say otherwise.
func fleet(t *testing.T, n int, opts ...fleetOption) *testFleet {
	t.Helper()
	var cfg fleetConfig
	for _, o := range opts {
		o(&cfg)
	}
	m := cfg.tiles
	var err error
	if m == nil {
		m, err = Uniform(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10000, 10000)}, 4, 2, n)
	}
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{faults: &faultTransport{base: &http.Transport{}, hosts: map[string]int{}}}
	t.Cleanup(f.faults.base.CloseIdleConnections)
	clients := make([]*Client, m.NumShards())
	for i := range clients {
		s := startShard(t, serve.Config{ShardID: fmt.Sprint(i), Tiles: m.Spec()}, cfg.durable)
		f.servers = append(f.servers, s)
		f.faults.hosts[s.ts.Listener.Addr().String()] = i
		clients[i] = &Client{ID: fmt.Sprint(i), BaseURL: s.ts.URL, HTTP: &http.Client{Transport: f.faults},
			Retry: RetryPolicy{Attempts: 3, Backoff: time.Millisecond, MaxBackoff: time.Millisecond}}
	}
	f.startRouter(t, m, clients)
	f.front = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { f.handler.Load().ServeHTTP(w, r) }))
	t.Cleanup(f.front.Close)
	f.ref, f.refc = reference(t)
	return f
}

// startRouter puts a router over clients behind the fleet's front.
func (f *testFleet) startRouter(t *testing.T, m *TileMap, clients []*Client) {
	t.Helper()
	r, err := NewRouter(m, clients, Config{Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	f.Router = r
	f.handler.Store(NewServer(r))
}

// restartRouter puts a fresh router, one that has routed nothing, over
// the same shards behind the same front, as a restarted ildq-router is:
// the shards keep every copy the old one placed.
func (f *testFleet) restartRouter(t *testing.T) {
	t.Helper()
	clients := make([]*Client, len(f.shards))
	for i, c := range f.shards {
		clients[i] = &Client{ID: c.ID, BaseURL: c.BaseURL, HTTP: c.HTTP, Retry: c.Retry}
	}
	f.startRouter(t, f.tiles, clients)
}

// reference boots one single-engine server holding the union of the
// data — the bit-exactness oracle — and a client of it.
func reference(t *testing.T) (*testShard, *Client) {
	s := startShard(t, serve.Config{}, false)
	return s, &Client{ID: "ref", BaseURL: s.ts.URL}
}

// testShard is one shard server behind a stable URL; restart swaps the
// server behind it.
type testShard struct {
	ts  *httptest.Server
	cfg serve.Config
	dir string // the data directory; "" for an ephemeral engine
	mon *monitor.Monitor
	srv atomic.Pointer[serve.Server]
}

func startShard(t *testing.T, cfg serve.Config, durable bool) *testShard {
	s := &testShard{cfg: cfg}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { s.srv.Load().ServeHTTP(w, r) }))
	t.Cleanup(s.ts.Close)
	dir := ""
	if durable {
		dir = t.TempDir()
	}
	s.open(t, dir)
	return s
}

// open serves a fresh engine, or the durable one recovered from dir.
func (s *testShard) open(t *testing.T, dir string) {
	var eng *core.Engine
	var err error
	if dir == "" {
		eng, err = core.NewEngine(nil, nil, core.EngineOptions{})
	} else if eng, err = core.Open(dir, core.EngineOptions{FsyncPolicy: core.FsyncAlways}); err == nil {
		t.Cleanup(func() { eng.Close() })
	}
	if err != nil {
		t.Fatal(err)
	}
	s.dir, s.mon = dir, monitor.New(eng, monitor.Config{Workers: 1})
	s.srv.Store(serve.NewServer(s.mon, core.EvalOptions{}, s.cfg))
}

// Engine is the engine the shard serves.
func (s *testShard) Engine() *core.Engine { return s.mon.Engine() }

// restart kills durable shard i and starts it again behind the same URL
// from a copy of its data directory, the crash image, as
// TestCrashRecoveryProperty takes one; the killed engine is closed only
// at cleanup. It returns at once: the router may still hold its feed to
// the killed shard, and learns that it broke when it reads the feed or
// registers onto it.
func (f *testFleet) restart(t *testing.T, i int) {
	t.Helper()
	f.reopen(t, i)
	f.servers[i].ts.CloseClientConnections() // the killed process's connections die with it
}

// reopen starts durable shard i again behind the same URL from a copy
// of its data directory, leaving the connections the old server holds
// open: the old server keeps serving them, its open delta feed
// included, as a router would see a shard that restarted behind a proxy
// that kept its connections up.
func (f *testFleet) reopen(t *testing.T, i int) {
	t.Helper()
	s := f.servers[i]
	image := filepath.Join(t.TempDir(), "crash-image")
	if err := os.CopyFS(image, os.DirFS(s.dir)); err != nil {
		t.Fatal(err)
	}
	s.open(t, image)
}

// apply routes a batch through the router and, once every shard has
// acknowledged its part, applies it to the reference.
func (f *testFleet) apply(t *testing.T, b serve.UpdatesRequest) {
	t.Helper()
	if resp, err := f.ApplyUpdates(t.Context(), b); err != nil || resp.Partial {
		t.Fatalf("router updates: %v (missing %v)", err, resp.MissingShards)
	}
	if _, err := f.refc.Updates(t.Context(), b); err != nil {
		t.Fatalf("reference updates: %v", err)
	}
}

// clientReply is what a client reads from POST /v1/evaluate or POST
// /v1/queries: the match list or the snapshot as its bytes, and the
// shards missing from the answer.
type clientReply struct {
	ID       int64           `json:"id"`
	Matches  json.RawMessage `json:"matches"`
	Snapshot json.RawMessage `json:"snapshot"`
	Partial  bool            `json:"partial"`
	Missing  []string        `json:"missing_shards"`
}

// ask posts q to path on the router's front and on the reference.
func (f *testFleet) ask(t *testing.T, path string, q serve.RequestJSON) (got, want clientReply) {
	t.Helper()
	for url, out := range map[string]*clientReply{f.front.URL: &got, f.ref.ts.URL: &want} {
		status, body := postJSON(t, url+path, q)
		if err := json.Unmarshal(body, out); status >= 300 || err != nil {
			t.Fatalf("POST %s%s: HTTP %d %s", url, path, status, body)
		}
	}
	return got, want
}

// deregister removes a standing query ask registered from the router
// and from the reference.
func (f *testFleet) deregister(t *testing.T, got, want clientReply) {
	t.Helper()
	for url, id := range map[string]int64{f.front.URL: got.ID, f.ref.ts.URL: want.ID} {
		if status, body := send(t, http.MethodDelete, fmt.Sprintf("%s/v1/queries/%d", url, id), nil); status != http.StatusNoContent {
			t.Fatalf("DELETE %s query %d: HTTP %d %s", url, id, status, body)
		}
	}
}

// converged fails unless the fleet answers as the reference does, whole
// and byte for byte: range and NN match lists for issuers on the 4x2
// grid's borders and inside its tiles, and fresh registrations'
// snapshots.
func (f *testFleet) converged(t *testing.T) {
	t.Helper()
	for i, c := range [][2]float64{{2500, 5000}, {5000, 5000}, {7400, 4800}, {1200, 1500}, {8600, 8200}} {
		iss := serve.IssuerJSON{Region: []float64{c[0] - 300, c[1] - 300, c[0] + 300, c[1] + 300}}
		for _, q := range []serve.RequestJSON{
			{Kind: "uncertain", Issuer: iss, W: 1200, H: 1200, Threshold: 0.1, Seed: int64(i + 1)},
			{Kind: "points", Issuer: iss, W: 1500, H: 1500, Seed: int64(i + 1)},
			{Kind: "nn", Issuer: iss, K: 2, NNSamples: 256, Seed: int64(i + 1)},
		} {
			if got, want := f.ask(t, "/v1/evaluate", q); got.Partial || !bytes.Equal(got.Matches, want.Matches) {
				t.Fatalf("%s at %v: fleet (missing %v)\n%s\nsingle engine\n%s", q.Kind, c, got.Missing, got.Matches, want.Matches)
			}
			if q.Kind != "nn" {
				got, want := f.ask(t, "/v1/queries", q)
				f.deregister(t, got, want)
				if !bytes.Equal(got.Snapshot, want.Snapshot) {
					t.Fatalf("%s registered at %v: fleet snapshot\n%s\nsingle engine\n%s", q.Kind, c, got.Snapshot, want.Snapshot)
				}
			}
		}
	}
}

// postJSON posts v and returns the status and the reply body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	return send(t, http.MethodPost, url, v)
}

// send sends v as JSON — a string as the body's own bytes, nil as no
// body — and returns the status and the reply body.
func send(t *testing.T, method, url string, v any) (int, []byte) {
	t.Helper()
	body, ok := v.(string)
	if raw, err := json.Marshal(v); !ok && v != nil {
		if err != nil {
			t.Fatal(err)
		}
		body = string(raw)
	}
	req, err := http.NewRequestWithContext(t.Context(), method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// errorText is the message of an error reply.
func errorText(body []byte) string {
	var reply struct{ Error string }
	json.Unmarshal(body, &reply) //nolint:errcheck // a success body has no error to read
	return reply.Error
}

// faultTransport is the shard clients' RoundTripper: it sends each
// request on to its shard unless an armed fault takes it.
type faultTransport struct {
	base  *http.Transport
	hosts map[string]int // shard index by host:port, fixed once the fleet is built
	mu    sync.Mutex
	armed []*fault
}

type faultKind int

const (
	dropRequest      faultKind = iota // the shard never sees the request
	delayRequest                      // the request waits n ms
	duplicateRequest                  // the shard sees it twice; the client reads the second reply
	loseReply                         // the shard answers; the client gets a transport error
	tearReply                         // the reply breaks off after n bytes: a torn reply, a feed cut at byte n
	cannedReply                       // the shard answers; the client reads canned instead
)

// fault takes the next times requests (every one while times is 0) to
// shard whose "METHOD /path" starts with route.
type fault struct {
	shard  int
	route  string
	kind   faultKind
	n      int
	times  int
	canned canned
	hits   atomic.Int64 // requests taken
}

// arm adds fl to the faults the transport applies.
func (ft *faultTransport) arm(fl *fault) *fault {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.armed = append(ft.armed, fl)
	return fl
}

// disarm drops every armed fault.
func (ft *faultTransport) disarm() {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.armed = nil
}

func (ft *faultTransport) take(req *http.Request) *fault {
	shard, ok := ft.hosts[req.URL.Host]
	route := req.Method + " " + req.URL.Path
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for _, fl := range ft.armed {
		if ok && fl.shard == shard && strings.HasPrefix(route, fl.route) && (fl.times == 0 || fl.hits.Load() < int64(fl.times)) {
			fl.hits.Add(1)
			return fl
		}
	}
	return nil
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	fl := ft.take(req)
	if fl == nil {
		return ft.base.RoundTrip(req)
	}
	switch fl.kind {
	case dropRequest:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("fault: request dropped before the shard")
	case delayRequest:
		time.Sleep(time.Duration(fl.n) * time.Millisecond)
	case duplicateRequest:
		dup := req.Clone(req.Context())
		if req.GetBody != nil {
			var err error
			if dup.Body, err = req.GetBody(); err != nil {
				return nil, err
			}
		}
		if resp, err := ft.base.RoundTrip(dup); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // the first reply is not read
			resp.Body.Close()
		}
	}
	resp, err := ft.base.RoundTrip(req)
	switch {
	case err != nil:
		return nil, err
	case fl.kind == loseReply:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // the shard has answered
		resp.Body.Close()
		return nil, errors.New("fault: reply lost after the shard answered")
	case fl.kind == tearReply:
		resp.Body = &faultBody{io.LimitReader(resp.Body, int64(fl.n)), endCut, nil, resp.Body}
	case fl.kind == cannedReply:
		resp = fl.canned.response(req, resp.Body)
	}
	return resp, nil
}

// canned is a reply served in place of the shard's.
type canned struct {
	status int // 0 is 200
	media  string
	body   string
	length int64 // the announced Content-Length: 0 is the body's, -1 none
	end    cannedEnd
}

// cannedEnd is what a canned or torn body does after its bytes.
type cannedEnd int

const (
	endEOF   cannedEnd = iota // it ends
	endHold                   // it stays open until the client hangs up: a live feed
	endCut                    // it breaks off: a dropped connection
	endZeros                  // zeros follow without end
)

// response is c as the reply to req; the shard's own reply stays open
// until this one is closed.
func (c canned) response(req *http.Request, shards io.ReadCloser) *http.Response {
	status, length := max(c.status, http.StatusOK), c.length
	if length == 0 {
		length = int64(len(c.body))
	}
	resp := &http.Response{Status: fmt.Sprint(status), StatusCode: status, Header: http.Header{}, ContentLength: length, Request: req,
		Body: &faultBody{strings.NewReader(c.body), c.end, req.Context(), shards}}
	if c.media != "" {
		resp.Header.Set("Content-Type", c.media)
	}
	return resp
}

// faultBody is a reply body that does what end says after r's bytes; it
// closes the shard's own body.
type faultBody struct {
	r      io.Reader
	end    cannedEnd
	ctx    context.Context
	shards io.Closer
}

func (b *faultBody) Read(p []byte) (int, error) {
	if n, err := b.r.Read(p); n > 0 || err != io.EOF {
		return n, err
	}
	switch b.end {
	case endHold:
		<-b.ctx.Done()
		return 0, b.ctx.Err()
	case endCut:
		return 0, errors.New("fault: connection dropped mid-reply")
	case endZeros:
		clear(p)
		return len(p), nil
	}
	return 0, io.EOF
}

func (b *faultBody) Close() error { return b.shards.Close() }
