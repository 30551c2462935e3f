package shard

import (
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// TestClientReusesConnections: a reply over 2 KB leaves the server
// chunked — the JSON in one write, the terminal chunk in a second one
// when the handler returns — and a body closed before its terminal
// chunk is read costs the keep-alive connection. The handler here
// holds the terminal chunk back a millisecond, so the JSON decoder is
// always done before it arrives. 200 such evaluate replies through one
// Client must not open more connections than the transport may keep
// idle.
func TestClientReusesConnections(t *testing.T) {
	reply := serve.EvaluateResponse{Kind: "points", Matches: make([]serve.MatchJSON, 400)}
	for i := range reply.Matches {
		reply.Matches[i] = serve.MatchJSON{ID: int64(i), P: 0.5}
	}
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(slog.Default(), w, http.StatusOK, reply)
		w.(http.Flusher).Flush()
		time.Sleep(time.Millisecond)
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	tr := &http.Transport{MaxIdleConnsPerHost: 2}
	t.Cleanup(tr.CloseIdleConnections)
	c := &Client{ID: "0", BaseURL: ts.URL, HTTP: &http.Client{Transport: tr}}
	for i := 0; i < 200; i++ {
		got, err := c.Evaluate(t.Context(), serve.RequestJSON{Kind: "points"})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Matches) != len(reply.Matches) {
			t.Fatalf("reply %d: %d matches, want %d", i, len(got.Matches), len(reply.Matches))
		}
	}
	if n := opened.Load(); n > int64(tr.MaxIdleConnsPerHost) {
		t.Fatalf("200 sequential requests opened %d connections, want at most %d", n, tr.MaxIdleConnsPerHost)
	}
}
