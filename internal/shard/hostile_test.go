package shard

import (
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/wire"
)

// goodEvaluate is a reply the router accepts; the hostile ones are
// made from it.
const goodEvaluate = `{"request_id":"9","kind":"uncertain","version":4,"matches":[{"id":31,"p":0.75},{"id":30,"p":0.5}],"cost":{"candidates":2,"refined":0,"samples_used":0,"early_stopped":0,"node_accesses":1,"duration_ms":0.01}}` + "\n"

// seventeenMB is one byte more than no reply may be, built once so that
// no test's allocation count includes it.
var seventeenMB = strings.Repeat(" ", serve.MaxBodyBytes+1-len(goodEvaluate)) + goodEvaluate

// jsonBody is body as an application/json reply.
func jsonBody(body string) canned { return canned{media: "application/json", body: body} }

// frameBody is body as an NN candidate frame reply.
func frameBody(body []byte) canned { return canned{media: wire.NNFrameType, body: string(body)} }

// bodyRefused is what a 2xx reply its decoder refuses is.
var bodyRefused = []error{ErrReplyFormat, serve.ErrBody}

// hostileReplies are the shard replies a router must survive: each
// names the typed errors the client owes for it.
var hostileReplies = []struct {
	name  string
	route string // the request that draws the reply
	reply canned
	want  []error
	// binaries: the message must point at a half-upgraded fleet.
	binaries bool
	// unread: the reply is refused on its headers, so handling it
	// allocates next to nothing.
	unread bool
}{
	{name: "count 2^40 in a 20-byte body", route: nnRoute, want: []error{ErrReplyFormat, wire.ErrFrame}, binaries: true,
		reply: frameBody(func() []byte {
			empty := wire.AppendNNCandidateSet(nil, core.NNCandidateSet{Tau: 1})
			body := binary.AppendUvarint(empty[:len(empty)-1], 1<<40)
			return append(body, make([]byte, 20-len(body))...)
		}())},
	{name: "endless body", route: nnRoute, want: []error{ErrReplyTooLarge},
		reply: canned{media: wire.NNFrameType, length: -1, end: endZeros}},
	{name: "json from an old shard", route: nnRoute, want: []error{ErrReplyFormat}, binaries: true,
		reply: jsonBody(`{"version":3,"tau":141.4,"node_accesses":2,"candidates":[{"id":1,"x":1000,"y":1000}]}` + "\n")},
	{name: "unknown frame version", route: nnRoute, want: []error{ErrReplyFormat, wire.ErrFrame}, binaries: true,
		reply: frameBody(func() []byte {
			frame := wire.AppendNNCandidateSet(nil, core.NNCandidateSet{Tau: 1})
			frame[0] = 0x7f
			return frame
		}())},
	{name: "frame announcing 2^40 bytes", route: nnRoute, want: []error{ErrReplyTooLarge}, unread: true,
		reply: canned{media: wire.NNFrameType, body: string(wire.AppendNNCandidateSet(nil, core.NNCandidateSet{Tau: 1})), length: 1 << 40}},
	{name: "evaluate: truncated body", route: evaluateRoute, want: bodyRefused, binaries: true,
		reply: jsonBody(goodEvaluate[:len(goodEvaluate)-40])},
	{name: "evaluate: p is a string", route: evaluateRoute, want: bodyRefused, binaries: true,
		reply: jsonBody(strings.Replace(goodEvaluate, `"p":0.5`, `"p":"x"`, 1))},
	{name: "evaluate: trailing garbage", route: evaluateRoute, want: bodyRefused, binaries: true,
		reply: jsonBody(goodEvaluate + "{}")},
	{name: "evaluate: unsorted match list", route: evaluateRoute, want: bodyRefused, binaries: true,
		reply: jsonBody(strings.Replace(goodEvaluate, `"p":0.5`, `"p":0.875`, 1))},
	{name: "evaluate: duplicated match", route: evaluateRoute, want: bodyRefused, binaries: true,
		reply: jsonBody(strings.Replace(goodEvaluate, `{"id":30,"p":0.5}`, `{"id":31,"p":0.75}`, 1))},
	{name: "evaluate: a match in another layout", route: evaluateRoute, want: bodyRefused, binaries: true,
		reply: jsonBody(strings.Replace(goodEvaluate, `{"id":30,"p":0.5}`, `{"p":0.5,"id":30}`, 1))},
	{name: "evaluate: whitespace in the match list", route: evaluateRoute, want: bodyRefused, binaries: true,
		reply: jsonBody(strings.Replace(goodEvaluate, `},{`, `}, {`, 1))},
	{name: "evaluate: 17 MB body", route: evaluateRoute, want: []error{ErrReplyTooLarge}, unread: true,
		reply: jsonBody(seventeenMB)},
	{name: "evaluate: text/plain", route: evaluateRoute, want: []error{ErrReplyFormat}, binaries: true,
		reply: canned{media: "text/plain", body: goodEvaluate}},
	{name: "register: unsorted snapshot", route: "POST /v1/queries", want: bodyRefused, binaries: true,
		reply: jsonBody(`{"id":3,"kind":"uncertain","snapshot":[{"id":30,"p":0.5},{"id":31,"p":0.75}]}`)},
	{name: "register: a match in another layout", route: "POST /v1/queries", want: bodyRefused, binaries: true,
		reply: jsonBody(`{"id":3,"kind":"uncertain","snapshot":[{"id":31,"p":0.75},{"p":0.5,"id":30}]}`)},
	{name: "register: whitespace in the snapshot", route: "POST /v1/queries", want: bodyRefused, binaries: true,
		reply: jsonBody(`{"id":3,"kind":"uncertain","snapshot":[{"id":31,"p":0.75}, {"id":30,"p":0.5}]}`)},
	{name: "updates: truncated body", route: "POST /v1/updates", want: bodyRefused, binaries: true,
		reply: jsonBody(`{"seq":1,"applied":`)},
	{name: "updates: versions key twice", route: "POST /v1/updates", want: bodyRefused, binaries: true,
		reply: jsonBody(`{"seq":1,"versions":{"0":3,"0":4}}`)},
	{name: "healthz: not an object", route: "GET /healthz", want: []error{ErrReplyFormat}, binaries: true,
		reply: jsonBody(`"ok"`)},
}

const (
	nnRoute       = "POST /v1/nn/candidates"
	evaluateRoute = "POST /v1/evaluate"
)

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

// askHostile sends the request that draws route's reply and reports
// whether the client made anything of it.
func askHostile(t *testing.T, c *Client, route string) (produced bool, err error) {
	ctx := t.Context()
	switch route {
	case nnRoute:
		set, err := c.NNCandidates(ctx, serve.NNCandidatesRequest{Request: nearBorderNN}, nil)
		return set.Candidates != nil, err
	case evaluateRoute:
		buf := serve.GetBuffer()
		defer func() { serve.PutBuffer(buf, *buf) }()
		resp, err := c.evaluateReply(ctx, straddlingRange, buf)
		return !reflect.DeepEqual(resp, serve.EvaluateReply{}), err
	case "POST /v1/queries":
		buf := serve.GetBuffer()
		defer func() { serve.PutBuffer(buf, *buf) }()
		resp, err := c.Register(ctx, straddlingRange, "", buf)
		return !reflect.DeepEqual(resp, serve.RegisterReply{}), err
	case "POST /v1/updates":
		resp, err := c.Updates(ctx, serve.UpdatesRequest{})
		return !reflect.DeepEqual(resp, serve.UpdatesResponse{}), err
	case "GET /healthz":
		resp, err := c.Healthz(ctx)
		return resp != serve.HealthzResponse{}, err
	}
	t.Fatalf("no request draws a reply on %s", route)
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
			rt := fleet(t, 1)
			hostile := rt.faults.arm(&fault{route: tc.route, kind: cannedReply, canned: tc.reply})
			c := &Client{ID: "7", BaseURL: rt.shards[0].BaseURL, HTTP: rt.shards[0].HTTP, Retry: RetryPolicy{Attempts: 3, Backoff: time.Millisecond}}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			produced, err := askHostile(t, c, tc.route)
			runtime.ReadMemStats(&after)

			for _, want := range tc.want {
				if !errors.Is(err, want) {
					t.Errorf("err = %v, want it to wrap %q", err, want)
				}
			}
			if _, endpoint, _ := strings.Cut(tc.route, " "); err != nil && !strings.Contains(err.Error(), "shard 7: "+endpoint) {
				t.Errorf("error does not name the shard and endpoint: %v", err)
			}
			if tc.binaries && (err == nil || !strings.Contains(err.Error(), "router and shard binaries differ")) {
				t.Errorf("error does not point at mismatched binaries: %v", err)
			}
			if produced {
				t.Error("a refused reply still produced a value")
			}
			if n := hostile.hits.Load(); n != 1 {
				t.Errorf("shard drew %d requests, want exactly 1 (no retry of a deterministic failure)", n)
			}
			// io.ReadAll's growth copies make a read up to the cap cost a
			// small multiple of it; a 2^40 count or length honoured would
			// be terabytes. A reply refused on its headers costs no buffer.
			limit := 8 * uint64(maxNNFrame)
			if tc.route != nnRoute {
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
		switch tc.route {
		case nnRoute:
		case evaluateRoute:
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
			hostile := rt.faults.arm(&fault{shard: 1, route: tc.route, kind: cannedReply, canned: tc.reply})

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
			if n := hostile.hits.Load(); n != 1 {
				t.Errorf("hostile shard drew %d requests, want 1", n)
			}
			if rt.m.retries.With("1").Value() != 0 {
				t.Error("a deterministic reply failure was retried")
			}
		})
	}
}
