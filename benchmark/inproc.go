package main

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

// The settings ildq-serve runs a shard with when given only the flags
// startFleet passes.
var (
	shardEngineOptions = core.EngineOptions{FsyncPolicy: core.FsyncInterval}
	shardMonitorConfig = monitor.Config{Workers: 2, Seed: 1, MaxPending: 64}
)

// inproc is the same fleet as startFleet's, built in this process from
// the constructors the binaries use, over loopback listeners — with a
// span recorder wrapped round every layer boundary the benchmark can
// reach from outside: the router's handler, each shard client's
// transport, and each shard's handler.
type inproc struct {
	rec     *recorder
	dir     string
	router  *httptest.Server
	shards  []*httptest.Server
	engines []*core.Engine
	retries atomic.Int64

	// Every /v1/updates and /v1/queries body each shard received, in
	// arrival order, for replaying a shard's history into a twin.
	mu      sync.Mutex
	history [][]shardCall
	loaded  []int // history length per shard when the bulk load ended
}

// shardCall is one state-changing request a shard received.
type shardCall struct {
	op   int // operation that caused it; 0 outside traced operations
	path string
	body []byte
}

func startInproc(dir string) (*inproc, error) {
	f := &inproc{rec: newRecorder(), dir: dir, history: make([][]shardCall, numShards)}
	if err := f.boot(); err != nil {
		f.close() //nolint:errcheck // the boot error is the one to report
		return nil, err
	}
	return f, nil
}

func (f *inproc) boot() error {
	tiles, err := shard.Parse(tileSpec)
	if err != nil {
		return err
	}
	clients := make([]*shard.Client, numShards)
	for i := range numShards {
		id := strconv.Itoa(i)
		eng, err := core.Open(filepath.Join(f.dir, "shard"+id), shardEngineOptions)
		if err != nil {
			return err
		}
		f.engines = append(f.engines, eng)
		srv := serve.NewServer(monitor.New(eng, shardMonitorConfig), core.EvalOptions{},
			serve.Config{ShardID: id, Tiles: tileSpec})
		ts := httptest.NewServer(&serveWrapper{f: f, shard: i, inner: srv})
		f.shards = append(f.shards, ts)
		clients[i] = &shard.Client{ID: id, BaseURL: ts.URL, HTTP: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &hopTransport{f: f, shard: i, inner: ts.Client().Transport},
		}}
	}
	router, err := shard.NewRouter(tiles, clients, shard.Config{Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		return err
	}
	for _, c := range clients {
		counted := c.OnRetry // NewRouter's metrics hook
		c.OnRetry = func() { counted(); f.retries.Add(1) }
	}
	f.router = httptest.NewServer(&routerWrapper{f: f, inner: shard.NewServer(router)})
	return nil
}

// markLoaded notes that everything the shards have received so far was
// the bulk load.
func (f *inproc) markLoaded() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loaded = make([]int, len(f.history))
	for i, h := range f.history {
		f.loaded[i] = len(h)
	}
}

// close shuts the servers and engines down and removes the data dir.
func (f *inproc) close() error {
	if f.router != nil {
		f.router.CloseClientConnections()
		f.router.Close()
	}
	for _, ts := range f.shards {
		ts.CloseClientConnections()
		ts.Close()
	}
	var first error
	for _, eng := range f.engines {
		if err := eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	os.RemoveAll(f.dir)
	return first
}

// target presents the in-process fleet to measure(). Everything runs
// in one process, so its CPU and memory are booked to the shards.
func (f *inproc) target() target {
	return target{
		url: f.router.URL,
		usage: func() (usage, error) {
			cpu, err := cpuTime(os.Getpid())
			if err != nil {
				return usage{}, err
			}
			rss, err := peakRSS(os.Getpid())
			return usage{shardCPU: cpu, shardRSS: rss}, err
		},
		walBytes: func() int64 { return walBytes(f.dir) },
	}
}

// routerWrapper spans shard.Server.ServeHTTP.
type routerWrapper struct {
	f     *inproc
	inner http.Handler
}

func (h *routerWrapper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, _ := h.f.rec.begin(spanRouter, -1, r.URL.Path)
	h.inner.ServeHTTP(w, r)
	h.f.rec.end(id, nil)
}

// hopTransport spans one shard.Client call, from sending the request
// to the reply body being consumed and closed by the router — so the
// span encloses the shard's serve span and the router-side decoding
// that streams off the body.
type hopTransport struct {
	f     *inproc
	shard int
	inner http.RoundTripper
}

func (t *hopTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && (r.URL.Path == "/v1/updates" || r.URL.Path == "/v1/queries") && r.GetBody != nil {
		if rd, err := r.GetBody(); err == nil {
			body, _ := io.ReadAll(rd)
			t.f.mu.Lock()
			t.f.history[t.shard] = append(t.f.history[t.shard], shardCall{op: t.f.rec.currentOp(), path: r.URL.Path, body: body})
			t.f.mu.Unlock()
		}
	}
	id, _ := t.f.rec.begin(spanHop, t.shard, r.URL.Path)
	resp, err := t.inner.RoundTrip(r)
	if err != nil || id < 0 {
		t.f.rec.end(id, nil)
		return resp, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.f.rec.end(id, nil) }}
	return resp, nil
}

// spanBody ends a hop span when the reply body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// serveWrapper spans serve.Server.ServeHTTP on one shard. For a traced
// query it also hands the engine an obs trace through the request
// context — the instrument production's "trace": true uses — and keeps
// the reply, so the stage times and the engine's own cost.duration_ms
// can be read once the operation is over. (An update gets no trace: the
// monitor re-evaluates on several goroutines and a trace belongs to
// one.)
type serveWrapper struct {
	f     *inproc
	shard int
	inner http.Handler
}

func (h *serveWrapper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, op := h.f.rec.begin(spanServe, h.shard, r.URL.Path)
	if id < 0 {
		h.inner.ServeHTTP(w, r)
		return
	}
	var tr *obs.Trace
	if r.URL.Path == "/v1/evaluate" {
		tr = obs.NewTrace("")
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
	}
	t0 := time.Since(h.f.rec.epoch).Nanoseconds()
	tee := &teeWriter{ResponseWriter: w}
	h.inner.ServeHTTP(tee, r)
	end := time.Since(h.f.rec.epoch).Nanoseconds()
	for _, st := range tr.Spans() {
		h.f.rec.add(span{Name: "core." + st.Name, Op: op, Parent: id, Shard: h.shard,
			Start: t0 + st.Start.Nanoseconds(), End: t0 + (st.Start + st.Duration).Nanoseconds()})
	}
	h.f.rec.end(id, func(s *span) {
		s.End = end
		s.ReqBytes, s.RespBytes, s.body = int(r.ContentLength), tee.buf.Len(), tee.buf.Bytes()
	})
}

// teeWriter copies what a handler writes.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.buf.Write(p)
	return t.ResponseWriter.Write(p)
}
