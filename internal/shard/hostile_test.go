package shard

import (
	"cmp"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/wire"
)

// jsonBody replies 200 with body as application/json, announcing its
// length.
func jsonBody(body string) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		io.WriteString(w, body) //nolint:errcheck // test server
	}
}

// goodEvaluate is a reply the router accepts; the hostile ones are
// made from it.
const goodEvaluate = `{"request_id":"9","kind":"uncertain","version":4,"matches":[{"id":31,"p":0.75},{"id":30,"p":0.5}],"cost":{"candidates":2,"refined":0,"samples_used":0,"early_stopped":0,"node_accesses":1,"duration_ms":0.01}}` + "\n"

// seventeenMB is one byte more than no reply may be, built once so that
// no test's allocation count includes it.
var seventeenMB = strings.Repeat(" ", serve.MaxBodyBytes+1-len(goodEvaluate)) + goodEvaluate

// hostileReplies are the shard replies a router must survive: each
// names the typed errors the client owes for it.
var hostileReplies = []struct {
	name string
	// path is the endpoint the reply is served on ("" is
	// /v1/nn/candidates).
	path  string
	reply http.HandlerFunc
	want  []error
	// binaries: the message must point at a half-upgraded fleet.
	binaries bool
	// unread: the reply is refused on its headers, so handling it
	// allocates next to nothing.
	unread bool
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
	{
		name: "frame announcing 2^40 bytes",
		reply: func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", wire.NNFrameType)
			w.Header().Set("Content-Length", strconv.Itoa(1<<40))
			w.Write(wire.AppendNNCandidateSet(nil, core.NNCandidateSet{Tau: 1})) //nolint:errcheck // test server
		},
		want:   []error{ErrReplyTooLarge},
		unread: true,
	},
	{
		name: "evaluate: truncated body", path: "/v1/evaluate",
		reply: jsonBody(goodEvaluate[:len(goodEvaluate)-40]),
		want:  []error{ErrReplyFormat, serve.ErrBody}, binaries: true,
	},
	{
		name: "evaluate: p is a string", path: "/v1/evaluate",
		reply: jsonBody(strings.Replace(goodEvaluate, `"p":0.5`, `"p":"x"`, 1)),
		want:  []error{ErrReplyFormat, serve.ErrBody}, binaries: true,
	},
	{
		name: "evaluate: trailing garbage", path: "/v1/evaluate",
		reply: jsonBody(goodEvaluate + "{}"),
		want:  []error{ErrReplyFormat, serve.ErrBody}, binaries: true,
	},
	{
		name: "evaluate: unsorted match list", path: "/v1/evaluate",
		reply: jsonBody(strings.Replace(goodEvaluate, `"p":0.5`, `"p":0.875`, 1)),
		want:  []error{ErrReplyFormat, serve.ErrBody}, binaries: true,
	},
	{
		name: "evaluate: duplicated match", path: "/v1/evaluate",
		reply: jsonBody(strings.Replace(goodEvaluate, `{"id":30,"p":0.5}`, `{"id":31,"p":0.75}`, 1)),
		want:  []error{ErrReplyFormat, serve.ErrBody}, binaries: true,
	},
	{
		name: "evaluate: a match in another layout", path: "/v1/evaluate",
		reply: jsonBody(strings.Replace(goodEvaluate, `{"id":30,"p":0.5}`, `{"p":0.5,"id":30}`, 1)),
		want:  []error{ErrReplyFormat, serve.ErrBody}, binaries: true,
	},
	{
		name: "evaluate: whitespace in the match list", path: "/v1/evaluate",
		reply: jsonBody(strings.Replace(goodEvaluate, `},{`, `}, {`, 1)),
		want:  []error{ErrReplyFormat, serve.ErrBody}, binaries: true,
	},
	{
		name: "evaluate: 17 MB body", path: "/v1/evaluate",
		reply:  jsonBody(seventeenMB),
		want:   []error{ErrReplyTooLarge},
		unread: true,
	},
	{
		name: "evaluate: text/plain", path: "/v1/evaluate",
		reply: func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain")
			io.WriteString(w, goodEvaluate) //nolint:errcheck // test server
		},
		want: []error{ErrReplyFormat}, binaries: true,
	},
	{
		name: "register: unsorted snapshot", path: "/v1/queries",
		reply: jsonBody(`{"id":3,"kind":"uncertain","snapshot":[{"id":30,"p":0.5},{"id":31,"p":0.75}]}`),
		want:  []error{ErrReplyFormat, serve.ErrBody}, binaries: true,
	},
	{
		name: "register: a match in another layout", path: "/v1/queries",
		reply: jsonBody(`{"id":3,"kind":"uncertain","snapshot":[{"id":31,"p":0.75},{"p":0.5,"id":30}]}`),
		want:  []error{ErrReplyFormat, serve.ErrBody}, binaries: true,
	},
	{
		name: "register: whitespace in the snapshot", path: "/v1/queries",
		reply: jsonBody(`{"id":3,"kind":"uncertain","snapshot":[{"id":31,"p":0.75}, {"id":30,"p":0.5}]}`),
		want:  []error{ErrReplyFormat, serve.ErrBody}, binaries: true,
	},
	{
		name: "updates: truncated body", path: "/v1/updates",
		reply: jsonBody(`{"seq":1,"applied":`),
		want:  []error{ErrReplyFormat, serve.ErrBody}, binaries: true,
	},
	{
		name: "updates: versions key twice", path: "/v1/updates",
		reply: jsonBody(`{"seq":1,"versions":{"0":3,"0":4}}`),
		want:  []error{ErrReplyFormat, serve.ErrBody}, binaries: true,
	},
	{
		name: "healthz: not an object", path: "/healthz",
		reply: jsonBody(`"ok"`),
		want:  []error{ErrReplyFormat}, binaries: true,
	},
}

// hostileShard serves reply on path ("" is /v1/nn/candidates) and
// counts the requests it drew.
func hostileShard(t *testing.T, path string, reply http.HandlerFunc) (url string, requests *atomic.Int64) {
	t.Helper()
	if path == "" {
		path = "/v1/nn/candidates"
	}
	requests = new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != path {
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

// straddlingRange is a range query whose guard region reaches both
// shards of the two-shard fleet.
var straddlingRange = serve.RequestJSON{
	Issuer: serve.IssuerJSON{Region: []float64{900, 4900, 1100, 5100}},
	W:      400, H: 400,
}

// askHostile sends the request that draws path's reply and reports
// whether the client made anything of it.
func askHostile(t *testing.T, c *Client, path string) (produced bool, err error) {
	ctx := t.Context()
	switch path {
	case "":
		set, err := c.NNCandidates(ctx, serve.NNCandidatesRequest{Request: nearBorderNN}, nil)
		return set.Candidates != nil, err
	case "/v1/evaluate":
		buf := serve.GetBuffer()
		defer func() { serve.PutBuffer(buf, *buf) }()
		resp, err := c.evaluateReply(ctx, straddlingRange, buf)
		return !reflect.DeepEqual(resp, serve.EvaluateReply{}), err
	case "/v1/queries":
		buf := serve.GetBuffer()
		defer func() { serve.PutBuffer(buf, *buf) }()
		resp, err := c.Register(ctx, straddlingRange, "", buf)
		return !reflect.DeepEqual(resp, serve.RegisterReply{}), err
	case "/v1/updates":
		resp, err := c.Updates(ctx, serve.UpdatesRequest{})
		return !reflect.DeepEqual(resp, serve.UpdatesResponse{}), err
	case "/healthz":
		resp, err := c.Healthz(ctx)
		return resp != serve.HealthzResponse{}, err
	}
	t.Fatalf("no request draws a reply on %s", path)
	return false, nil
}

// TestClientHostileShard: a reply that is oversized or not in its
// endpoint's encoding is a typed error after exactly one request — a
// retry would draw the same bytes — read through the cap, so what the
// client allocates is bounded by the cap and not by what the shard
// announces or keeps sending.
func TestClientHostileShard(t *testing.T) {
	for _, tc := range hostileReplies {
		t.Run(tc.name, func(t *testing.T) {
			url, requests := hostileShard(t, tc.path, tc.reply)
			c := &Client{ID: "7", BaseURL: url, Retry: RetryPolicy{Attempts: 3, Backoff: time.Millisecond}}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			produced, err := askHostile(t, c, tc.path)
			runtime.ReadMemStats(&after)

			for _, want := range tc.want {
				if !errors.Is(err, want) {
					t.Errorf("err = %v, want it to wrap %q", err, want)
				}
			}
			if endpoint := cmp.Or(tc.path, "/v1/nn/candidates"); err != nil && !strings.Contains(err.Error(), "shard 7: "+endpoint) {
				t.Errorf("error does not name the shard and endpoint: %v", err)
			}
			if tc.binaries && (err == nil || !strings.Contains(err.Error(), "router and shard binaries differ")) {
				t.Errorf("error does not point at mismatched binaries: %v", err)
			}
			if produced {
				t.Error("a refused reply still produced a value")
			}
			if n := requests.Load(); n != 1 {
				t.Errorf("shard drew %d requests, want exactly 1 (no retry of a deterministic failure)", n)
			}
			// io.ReadAll's growth copies make a read up to the cap cost a
			// small multiple of it; a 2^40 count or length honoured would
			// be terabytes. A reply refused on its headers costs no buffer.
			limit := 8 * uint64(maxNNFrame)
			if tc.path != "" {
				limit = 8 * serve.MaxBodyBytes
			}
			if tc.unread {
				limit = 1 << 20
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
				t.Errorf("allocated %d bytes handling the reply, want at most %d", grew, limit)
			}
		})
	}
}

// TestRouterHostileHomeShard: the same replies from a shard a query
// needs — an NN query's home shard, one of a range query's two — cost
// the answer that shard: Partial with it listed, the other shard's
// answer merged as usual, not the request.
func TestRouterHostileHomeShard(t *testing.T) {
	for _, tc := range hostileReplies {
		query := nearBorderNN
		switch tc.path {
		case "":
		case "/v1/evaluate":
			query = straddlingRange
		default:
			continue // not on the evaluate path
		}
		t.Run(tc.name, func(t *testing.T) {
			rt := fleet(t, 2)
			ctx := t.Context()
			if _, err := rt.ApplyUpdates(ctx, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
				{Op: "upsert_point", ID: 1, X: 1000, Y: 4000},                          // row 0: the healthy shard 0
				{Op: "upsert_object", ID: 1, Region: []float64{950, 4800, 1050, 4900}}, // row 0 too
			}}); err != nil {
				t.Fatal(err)
			}
			url, requests := hostileShard(t, tc.path, tc.reply)
			rt.shards[1].BaseURL = url
			rt.shards[1].Retry = RetryPolicy{Attempts: 3, Backoff: time.Millisecond}

			got, err := routerEvaluate(ctx, rt, query)
			if err != nil {
				t.Fatalf("a hostile shard failed the request: %v", err)
			}
			if !got.Partial || !slices.Equal(got.MissingShards, []string{"1"}) {
				t.Errorf("partial=%v missing=%v, want shard 1 missing", got.Partial, got.MissingShards)
			}
			if len(got.Matches) != 1 || got.Matches[0].ID != 1 {
				t.Errorf("matches = %v, want the healthy shard's 1", got.Matches)
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
