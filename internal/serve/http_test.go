package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestUnencodableReplyIs500: a value that does not encode never reaches
// the client as a truncated 200 — it is a 500 whose body is a JSON
// error of the announced length — whichever encoder refused it.
func TestUnencodableReplyIs500(t *testing.T) {
	log := slog.New(slog.DiscardHandler)
	for name, write := range map[string]func(http.ResponseWriter){
		"reflection": func(w http.ResponseWriter) {
			WriteJSON(log, w, http.StatusOK, map[string]any{"before": "x", "p": math.NaN()})
		},
		"append encoder": func(w http.ResponseWriter) {
			WriteBody(log, w, http.StatusOK, func(dst []byte) ([]byte, error) {
				return AppendEngineEvaluateResponse(dst, &EvaluateResponse{}, []core.Match{{ID: 1, P: 0.5}, {ID: 2, P: math.NaN()}})
			})
		},
	} {
		rec := httptest.NewRecorder()
		write(rec)
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError || !strings.Contains(body["error"], "NaN") {
			t.Errorf("%s: HTTP %d %q (decode err %v), want a 500 with a JSON error naming NaN", name, rec.Code, rec.Body, err)
		}
		if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q for a body of %d bytes", name, got, rec.Body.Len())
		}
	}
}

// requireSized fails unless resp is a JSON reply sent whole: a
// Content-Length that is the body's length and no chunking.
func requireSized(t *testing.T, what string, resp *http.Response) (size int) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 || resp.Header.Get("Content-Length") == "" {
		t.Errorf("%s: HTTP %d, Content-Length %d, Transfer-Encoding %v for a body of %d bytes",
			what, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" || !json.Valid(body) {
		t.Errorf("%s: Content-Type %q, body %.80q", what, ct, body)
	}
	return len(body)
}

// TestRepliesCarryContentLength walks ildq-serve's JSON endpoints, the
// answers far past the 2 KB below which net/http would have sized them
// by itself: every reply, error replies included, announces its length.
func TestRepliesCarryContentLength(t *testing.T) {
	ts := testServer(t)
	var updates []string
	for id := range 300 {
		updates = append(updates, fmt.Sprintf(`{"op":"upsert_object","id":%d,"region":[%d,480,%d,520]}`, id, 400+id, 440+id))
	}
	post := func(path, body string) *http.Response {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	const query = `{"issuer":{"region":[450,450,550,550]},"w":400,"h":400}`
	requireSized(t, "updates", post("/v1/updates", `{"updates":[`+strings.Join(updates, ",")+`]}`))
	if n := requireSized(t, "evaluate", post("/v1/evaluate", query)); n < 4096 {
		t.Errorf("the evaluate reply is %d bytes: too small to have been chunked before", n)
	}
	requireSized(t, "evaluate, traced", post("/v1/evaluate", strings.Replace(query, "{", `{"trace":true,`, 1)))
	requireSized(t, "register", post("/v1/queries", query))
	requireSized(t, "query get", get("/v1/queries/1"))
	requireSized(t, "healthz", get("/healthz"))
	requireSized(t, "bad request", post("/v1/evaluate", `{"w":1}`))
	requireSized(t, "no such query", get("/v1/queries/99"))
	requireSized(t, "checkpoint of an ephemeral engine", post("/v1/admin/checkpoint", ``))
}
