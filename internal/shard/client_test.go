package shard

import (
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/uncertain"
)

// TestClientReusesConnections: 200 evaluate replies through one Client
// must not open more connections than the transport may keep idle,
// however the reply is framed. One sent without a Content-Length — an
// older shard's, a proxy's — arrives chunked: the JSON in one write,
// the terminal chunk in a second one when the handler returns, and a
// body closed before its terminal chunk is read costs the keep-alive
// connection; the handler here holds the terminal chunk back a
// millisecond, so the decoder is always done before it arrives. One
// with a Content-Length (every reply of this fleet) is read into a
// buffer of exactly that length, and the connection is kept only if
// net/http saw the body end with its last byte.
func TestClientReusesConnections(t *testing.T) {
	matches := make([]core.Match, 400)
	for i := range matches {
		matches[i] = core.Match{ID: uncertain.ID(i), P: 0.5}
	}
	reply := serve.EvaluateResponse{Kind: "points", Matches: serve.ToMatchesJSON(matches)}
	for name, handler := range map[string]http.HandlerFunc{
		"chunked": func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(reply) //nolint:errcheck // test server
			w.(http.Flusher).Flush()
			time.Sleep(time.Millisecond)
		},
		"content-length": func(w http.ResponseWriter, _ *http.Request) {
			serve.WriteBody(slog.Default(), w, http.StatusOK, func(dst []byte) ([]byte, error) {
				return serve.AppendEngineEvaluateResponse(dst, &reply, matches)
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			var opened atomic.Int64
			ts := httptest.NewUnstartedServer(handler)
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
			buf := serve.GetBuffer()
			defer func() { serve.PutBuffer(buf, *buf) }()
			for i := 0; i < 200; i++ {
				got, err := c.evaluateReply(t.Context(), serve.RequestJSON{Kind: "points"}, buf)
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
		})
	}
}
