package shard

import (
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/wire"
)

// hostileReplies are the /v1/nn/candidates replies a router must
// survive: each names the typed errors the client owes for it.
var hostileReplies = []struct {
	name  string
	reply http.HandlerFunc
	want  []error
	// binaries: the message must point at a half-upgraded fleet.
	binaries bool
}{
	{
		name: "count 2^40 in a 20-byte body",
		reply: func(w http.ResponseWriter, _ *http.Request) {
			empty := wire.AppendNNCandidateSet(nil, core.NNCandidateSet{Tau: 1})
			body := binary.AppendUvarint(empty[:len(empty)-1], 1<<40)
			body = append(body, make([]byte, 20-len(body))...)
			w.Header().Set("Content-Type", wire.NNFrameType)
			w.Write(body) //nolint:errcheck // test server
		},
		want:     []error{ErrReplyFormat, wire.ErrFrame},
		binaries: true,
	},
	{
		name: "endless body",
		reply: func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", wire.NNFrameType)
			chunk := make([]byte, 64<<10)
			for r.Context().Err() == nil {
				if _, err := w.Write(chunk); err != nil {
					return
				}
			}
		},
		want: []error{ErrReplyTooLarge},
	},
	{
		name: "json from an old shard",
		reply: func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"version":3,"tau":141.4,"node_accesses":2,"candidates":[{"id":1,"x":1000,"y":1000}]}` + "\n")) //nolint:errcheck // test server
		},
		want:     []error{ErrReplyFormat},
		binaries: true,
	},
	{
		name: "unknown frame version",
		reply: func(w http.ResponseWriter, _ *http.Request) {
			frame := wire.AppendNNCandidateSet(nil, core.NNCandidateSet{Tau: 1})
			frame[0] = 0x7f
			w.Header().Set("Content-Type", wire.NNFrameType)
			w.Write(frame) //nolint:errcheck // test server
		},
		want:     []error{ErrReplyFormat, wire.ErrFrame},
		binaries: true,
	},
}

// hostileShard serves reply on /v1/nn/candidates and counts the
// requests it drew.
func hostileShard(t *testing.T, reply http.HandlerFunc) (url string, requests *atomic.Int64) {
	t.Helper()
	requests = new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/nn/candidates" {
			http.NotFound(w, r)
			return
		}
		requests.Add(1)
		reply(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, requests
}

var nearBorderNN = serve.RequestJSON{
	Kind:   "nn",
	Issuer: serve.IssuerJSON{Region: []float64{900, 5100, 1100, 5300}}, // row 1: shard 1 is home
	K:      1, NNSamples: 64, Seed: 5,
}

// TestClientHostileShard: a reply that is oversized or not in the
// frame encoding is a typed error after exactly one request — a retry
// would draw the same bytes — read through the cap, so what the client
// allocates is bounded by the cap and not by what the shard announces
// or keeps sending.
func TestClientHostileShard(t *testing.T) {
	for _, tc := range hostileReplies {
		t.Run(tc.name, func(t *testing.T) {
			url, requests := hostileShard(t, tc.reply)
			c := &Client{ID: "7", BaseURL: url, Retry: RetryPolicy{Attempts: 3, Backoff: time.Millisecond}}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			set, err := c.NNCandidates(t.Context(), serve.NNCandidatesRequest{Request: nearBorderNN})
			runtime.ReadMemStats(&after)

			for _, want := range tc.want {
				if !errors.Is(err, want) {
					t.Errorf("err = %v, want it to wrap %q", err, want)
				}
			}
			if err != nil && !strings.Contains(err.Error(), "shard 7: /v1/nn/candidates") {
				t.Errorf("error does not name the shard and endpoint: %v", err)
			}
			if tc.binaries && (err == nil || !strings.Contains(err.Error(), "router and shard binaries differ")) {
				t.Errorf("error does not point at mismatched binaries: %v", err)
			}
			if set.Candidates != nil {
				t.Errorf("a refused reply still produced candidates: %+v", set)
			}
			if n := requests.Load(); n != 1 {
				t.Errorf("shard drew %d requests, want exactly 1 (no retry of a deterministic failure)", n)
			}
			// io.ReadAll's growth copies make a read up to the cap cost a
			// small multiple of it; a 2^40 count honoured would be 24 TB.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(maxNNFrame) {
				t.Errorf("allocated %d bytes handling the reply, cap is %d", grew, maxNNFrame)
			}
		})
	}
}

// TestRouterHostileHomeShard: the same replies from an NN query's home
// shard cost the answer that shard — Partial with it listed, the other
// shards' candidates refined as usual — not the request.
func TestRouterHostileHomeShard(t *testing.T) {
	for _, tc := range hostileReplies {
		t.Run(tc.name, func(t *testing.T) {
			rt := fleet(t, 2)
			ctx := t.Context()
			if _, err := rt.ApplyUpdates(ctx, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
				{Op: "upsert_point", ID: 1, X: 1000, Y: 4000}, // row 0: the healthy shard 0
			}}); err != nil {
				t.Fatal(err)
			}
			url, requests := hostileShard(t, tc.reply)
			rt.shards[1].BaseURL = url
			rt.shards[1].Retry = RetryPolicy{Attempts: 3, Backoff: time.Millisecond}

			got, err := rt.Evaluate(ctx, nearBorderNN)
			if err != nil {
				t.Fatalf("a hostile home shard failed the request: %v", err)
			}
			if !got.Partial || !slices.Equal(got.MissingShards, []string{"1"}) {
				t.Errorf("partial=%v missing=%v, want shard 1 missing", got.Partial, got.MissingShards)
			}
			if len(got.Matches) != 1 || got.Matches[0].ID != 1 {
				t.Errorf("matches = %v, want the healthy shard's point 1", got.Matches)
			}
			if n := requests.Load(); n != 1 {
				t.Errorf("hostile shard drew %d requests, want 1", n)
			}
			if rt.m.retries.With("1").Value() != 0 {
				t.Error("a deterministic reply failure was retried")
			}
		})
	}
}
