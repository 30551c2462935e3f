package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/obs"
)

func testServer(t *testing.T) *httptest.Server {
	return testServerCfg(t, Config{})
}

func testServerCfg(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	eng, err := core.NewEngine(nil, nil, core.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(monitor.New(eng, monitor.Config{Workers: 2}), core.EvalOptions{}, cfg))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url, body string) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding: %v", url, err)
	}
	if resp.StatusCode >= 400 {
		t.Fatalf("%s: HTTP %d: %v", url, resp.StatusCode, out)
	}
	return out
}

// TestServeLifecycle drives the full API against an initially empty
// world: register a standing query, ingest updates that move an
// object in and out of its range, and check the delta stream, the
// snapshot endpoint, and the metrics counters at each step.
func TestServeLifecycle(t *testing.T) {
	ts := testServer(t)

	// Register a standing query around (500, 500).
	reg := postJSON(t, ts.URL+"/v1/queries", `{
		"issuer": {"region": [450, 450, 550, 550]}, "w": 100, "h": 100}`)
	id := int64(reg["id"].(float64))
	if snap := reg["snapshot"].([]any); len(snap) != 0 {
		t.Fatalf("snapshot of empty world: %v", snap)
	}

	// An object inside the range enters the answer.
	up := postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_object", "id": 7, "region": [480, 480, 520, 520]}]}`)
	if up["applied"].(float64) != 1 || up["reevaluated"].(float64) != 1 {
		t.Fatalf("first batch: %v", up)
	}
	if up["entered"].(float64) != 1 {
		t.Fatalf("object did not enter: %v", up)
	}

	// A far-away object is guard-filtered: no re-evaluation.
	up = postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_object", "id": 8, "region": [5000, 5000, 5040, 5040]}]}`)
	if up["reevaluated"].(float64) != 0 || up["skipped"].(float64) != 1 {
		t.Fatalf("far batch was not skipped: %v", up)
	}

	// Moving object 7 away makes it leave.
	up = postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_object", "id": 7, "region": [3000, 3000, 3040, 3040]}]}`)
	if up["left"].(float64) != 1 {
		t.Fatalf("object did not leave: %v", up)
	}

	// One-shot evaluation sees the current world.
	ev := postJSON(t, ts.URL+"/v1/evaluate", `{
		"issuer": {"region": [2950, 2950, 3050, 3050]}, "w": 100, "h": 100}`)
	if ms := ev["matches"].([]any); len(ms) != 1 {
		t.Fatalf("one-shot matches: %v", ev)
	}

	// The snapshot endpoint reports the (now empty) standing answer
	// and its counters.
	resp, err := http.Get(fmt.Sprintf("%s/v1/queries/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if snap := got["snapshot"].([]any); len(snap) != 0 {
		t.Fatalf("standing answer after leave: %v", snap)
	}
	stats := got["stats"].(map[string]any)
	if stats["reevals"].(float64) != 3 || stats["skipped"].(float64) != 1 {
		t.Fatalf("per-query stats: %v", stats)
	}

	// Metrics expose the monitor totals and the per-query counters.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	if _, err := fmt.Fprint(body, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	metrics := body.String()
	for _, want := range []string{
		"ildq_monitor_batches_total 3",
		"ildq_monitor_skipped_total 1",
		fmt.Sprintf("ildq_query_reevals_total{query=\"%d\"} 3", id),
		"ildq_snapshot_age_seconds ",
		"ildq_snapshot_pins 0",
		"ildq_snapshot_version_lag 0",
		"ildq_snapshot_retired_nodes 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Unregister; the id disappears.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/queries/%d", ts.URL, id), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: HTTP %d", resp.StatusCode)
	}
	resp, err = http.Get(fmt.Sprintf("%s/v1/queries/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted query still served: HTTP %d", resp.StatusCode)
	}
}

// postRaw posts a body and returns the status code and decoded JSON
// without failing on non-2xx (for the error-path tests).
func postRaw(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding: %v", url, err)
	}
	return resp.StatusCode, out
}

// TestServeRejectsUnknownFields: the request decoder must refuse
// unknown JSON fields with a structured 400 — a typo in a request
// must fail loudly, not be silently ignored.
func TestServeRejectsUnknownFields(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/v1/evaluate", "/v1/queries"} {
		for field, req := range map[string]string{
			"treshold": `{"issuer": {"region": [450, 450, 550, 550]}, "w": 100, "h": 100, "treshold": 0.5}`,
			// A request refines on its own goroutine: there is no
			// per-request pool for a client to size.
			"workers": `{"issuer": {"region": [450, 450, 550, 550]}, "w": 100, "h": 100, "workers": 4}`,
			// kind's pre-Request spelling is no alias.
			"target": `{"target": "points", "issuer": {"region": [450, 450, 550, 550]}, "w": 100, "h": 100}`,
		} {
			status, body := postRaw(t, ts.URL+path, req)
			if status != http.StatusBadRequest {
				t.Fatalf("%s with unknown field %q: HTTP %d, want 400", path, field, status)
			}
			msg, _ := body["error"].(string)
			if !strings.Contains(msg, field) {
				t.Fatalf("%s error does not name the unknown field %q: %v", path, field, body)
			}
		}
	}
	// Updates share the decoder policy, and its words.
	status, body := postRaw(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_object", "id": 7, "regoin": [480, 480, 520, 520]}]}`)
	if status != http.StatusBadRequest || body["error"] != `json: unknown field "regoin"` {
		t.Fatalf("updates with unknown field: HTTP %d (%v), want 400 naming regoin", status, body)
	}
}

// TestServeRefusesDuplicateKeysAndTrailingBytes: the two bodies
// json.Decoder took and the strict request decoders refuse — a key twice
// in one object, bytes after the value — are 400s on every endpoint a
// query request reaches, the NN candidate collection included.
func TestServeRefusesDuplicateKeysAndTrailingBytes(t *testing.T) {
	ts := testServer(t)
	const query = `{"kind":"nn","issuer":{"region":[450,450,550,550]},"k":1}`
	for path, ok := range map[string]string{
		"/v1/evaluate":      query,
		"/v1/queries":       `{"issuer":{"region":[450,450,550,550]},"w":100,"h":100}`,
		"/v1/nn/candidates": `{"request":` + query + `}`,
	} {
		for name, body := range map[string]string{
			"a key twice":          ok[:len(ok)-1] + `,"kind":"nn"}`,
			"a nested key twice":   strings.Replace(ok, `"region":`, `"pdf":"uniform","PDF":"uniform","region":`, 1),
			"bytes after":          ok + " {}",
			"garbage after":        ok + "x",
			"whitespace after, ok": ok + " \n",
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			reply, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if want := strings.HasSuffix(name, ", ok"); (resp.StatusCode < 300) != want || !want && resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s with %s: HTTP %d %.80q", path, name, resp.StatusCode, reply)
			}
		}
	}
}

// capBodies are request bodies of MaxBodyBytes+1 and of MaxBodyBytes
// bytes for path: one value padded with whitespace inside it, so a
// decoder cannot stop before the end. The one at the cap is a valid
// request.
func capBodies(path string) (over, at string) {
	head, tail := `{"issuer":{"region":[450,450,550,550]},"w":100,`, `"h":100}`
	if path == "/v1/updates" {
		head, tail = `{"updates":[`, `{"op":"delete_point","id":1}]}`
	}
	pad := func(n int) string { return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail }
	return pad(MaxBodyBytes + 1), pad(MaxBodyBytes)
}

// TestServeBodyCap: a request body past MaxBodyBytes is a 413, not a
// 400, on the decoder the query requests go through and on the
// /v1/updates reader alike; a body exactly at the cap is served.
func TestServeBodyCap(t *testing.T) {
	ts := testServer(t)
	for _, path := range []string{"/v1/evaluate", "/v1/updates"} {
		over, at := capBodies(path)
		if status, body := postRaw(t, ts.URL+path, over); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s, %d bytes: HTTP %d (%v), want 413", path, len(over), status, body)
		}
		if status, body := postRaw(t, ts.URL+path, at); status != http.StatusOK {
			t.Errorf("%s, %d bytes: HTTP %d (%v), want 200", path, len(at), status, body)
		}
	}
}

// TestServeInvalidRequests: malformed requests come back as
// structured 400s carrying the core.RequestError message and the
// offending field.
func TestServeInvalidRequests(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, body, field string
	}{
		{"bad kind", `{"kind": "voronoi", "issuer": {"region": [0, 0, 10, 10]}, "w": 5, "h": 5}`, "kind"},
		{"bad threshold", `{"issuer": {"region": [0, 0, 10, 10]}, "w": 5, "h": 5, "threshold": 1.5}`, "threshold"},
		{"missing extents", `{"issuer": {"region": [0, 0, 10, 10]}}`, "extent"},
		{"nn without k", `{"kind": "nn", "issuer": {"region": [0, 0, 10, 10]}}`, "k"},
		{"nn with extents", `{"kind": "nn", "issuer": {"region": [0, 0, 10, 10]}, "w": 5, "h": 5, "k": 3}`, "extent"},
		{"k on range kind", `{"issuer": {"region": [0, 0, 10, 10]}, "w": 5, "h": 5, "k": 3}`, "k"},
		{"bad issuer region", `{"issuer": {"region": [0, 0, 10]}, "w": 5, "h": 5}`, "issuer"},
	}
	for _, path := range []string{"/v1/evaluate", "/v1/queries"} {
		for _, tc := range cases {
			status, body := postRaw(t, ts.URL+path, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("%s %s: HTTP %d (%v), want 400", path, tc.name, status, body)
			}
			if got, _ := body["field"].(string); got != tc.field {
				t.Fatalf("%s %s: field = %q (%v), want %q", path, tc.name, got, body, tc.field)
			}
			if msg, _ := body["error"].(string); msg == "" {
				t.Fatalf("%s %s: empty error message: %v", path, tc.name, body)
			}
		}
	}
}

// nonFiniteBodies are requests and update batches whose issuer or
// object region is finite but whose width or height overflows float64,
// keyed by the endpoint that takes them. A pdf over such a region has
// NaN masses and catalog rows, so each must be a 400.
var nonFiniteBodies = map[string][]string{
	"/v1/evaluate": {
		`{"issuer": {"region": [-1e308, -1e308, 1e308, 1e308]}, "w": 10, "h": 10}`,
		`{"kind": "points", "issuer": {"region": [-1e308, -1e308, 1e308, 1e308]}, "w": 1e308, "h": 1e308}`,
		`{"kind": "nn", "issuer": {"region": [-1e308, -1e308, 1e308, 1e308]}, "k": 1}`,
		`{"issuer": {"region": [0, -1e308, 1, 1e308], "pdf": "gaussian"}, "w": 10, "h": 10}`,
	},
	"/v1/queries": {
		`{"issuer": {"region": [-1e308, -1e308, 1e308, 1e308]}, "w": 10, "h": 10}`,
		`{"kind": "points", "issuer": {"region": [-1e308, 0, 1e308, 1]}, "w": 10, "h": 10}`,
	},
	"/v1/updates": {
		`{"updates": [{"op": "upsert_object", "id": 7, "region": [-1e308, -1e308, 1e308, 1e308]}]}`,
		`{"updates": [{"op": "upsert_object", "id": 7, "region": [-1e308, 0, 1e308, 1], "pdf": "gaussian"}]}`,
	},
}

// TestServeRefusesNonFiniteRegions: every endpoint refuses a region
// whose extent overflows with a 400 that says so, and a refused update
// leaves the engine as it was.
func TestServeRefusesNonFiniteRegions(t *testing.T) {
	eng, err := core.NewEngine(nil, nil, core.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(monitor.New(eng, monitor.Config{Workers: 2}), core.EvalOptions{}, Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	before := eng.Version()
	for path, bodies := range nonFiniteBodies {
		for _, body := range bodies {
			status, reply := postRaw(t, ts.URL+path, body)
			if msg, _ := reply["error"].(string); status != http.StatusBadRequest || !strings.Contains(msg, "not finite") {
				t.Errorf("%s %s: HTTP %d (%v), want a 400 saying not finite", path, body, status, reply)
			}
		}
	}
	if after := eng.Version(); after != before {
		t.Errorf("refused updates moved the engine from version %d to %d", before, after)
	}
}

// TestServeNNBudgetRefusal: an NN request whose total Monte-Carlo
// work (samples × candidates) exceeds the server's budget is refused
// up front with a 400 — not served for hours.
func TestServeNNBudgetRefusal(t *testing.T) {
	ts := testServer(t)
	// 64 clustered points, all of which survive pruning under a wide
	// issuer; with nn_samples at the request cap the scan-work product
	// blows the default budget (2^20 × 64 = 2^26 > 2^24).
	var sb strings.Builder
	sb.WriteString(`{"updates": [`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"op": "upsert_point", "id": %d, "x": %d, "y": %d}`, i, 490+i%8, 490+i/8)
	}
	sb.WriteString(`]}`)
	postJSON(t, ts.URL+"/v1/updates", sb.String())

	status, body := postRaw(t, ts.URL+"/v1/evaluate", `{
		"kind": "nn", "issuer": {"region": [0, 0, 1000, 1000]}, "k": 64, "nn_samples": 1048576}`)
	if status != http.StatusBadRequest {
		t.Fatalf("over-budget NN: HTTP %d (%v), want 400", status, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "budget") {
		t.Fatalf("budget refusal message: %v", body)
	}

	// The same request at a modest sample count succeeds.
	ev := postJSON(t, ts.URL+"/v1/evaluate", `{
		"kind": "nn", "issuer": {"region": [0, 0, 1000, 1000]}, "k": 64, "nn_samples": 2000}`)
	if len(ev["matches"].([]any)) == 0 {
		t.Fatalf("in-budget NN returned nothing: %v", ev)
	}
}

// TestServeNN: nearest neighbor is a first-class wire kind — one-shot
// and standing — evaluated through the engine's point index.
func TestServeNN(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_point", "id": 1, "x": 520, "y": 500},
		{"op": "upsert_point", "id": 2, "x": 480, "y": 500},
		{"op": "upsert_point", "id": 3, "x": 5000, "y": 5000}]}`)

	ev := postJSON(t, ts.URL+"/v1/evaluate", `{
		"kind": "nn", "issuer": {"region": [450, 450, 550, 550]}, "k": 2, "seed": 7}`)
	if ev["kind"] != "nn" {
		t.Fatalf("response kind: %v", ev)
	}
	ms := ev["matches"].([]any)
	if len(ms) != 2 {
		t.Fatalf("nn matches: %v", ev)
	}
	var ids []float64
	var total float64
	for _, m := range ms {
		mm := m.(map[string]any)
		ids = append(ids, mm["id"].(float64))
		total += mm["p"].(float64)
	}
	for _, id := range ids {
		if id == 3 {
			t.Fatalf("distant point won a nearest-neighbor share: %v", ev)
		}
	}
	if total < 0.9 {
		t.Fatalf("nearby points share %.3f of the probability, want ~1: %v", total, ev)
	}

	// Standing NN request: registration snapshot, then a point move
	// inside the finite tau-ball guard re-derives the answer.
	reg := postJSON(t, ts.URL+"/v1/queries", `{
		"kind": "nn", "issuer": {"region": [450, 450, 550, 550]}, "k": 2}`)
	if reg["kind"] != "nn" || len(reg["snapshot"].([]any)) != 2 {
		t.Fatalf("standing nn registration: %v", reg)
	}
	up := postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_point", "id": 3, "x": 500, "y": 480}]}`)
	if up["reevaluated"].(float64) != 1 {
		t.Fatalf("standing nn was not re-evaluated: %v", up)
	}
	id := int64(reg["id"].(float64))
	resp, err := http.Get(fmt.Sprintf("%s/v1/queries/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if len(got["snapshot"].([]any)) != 2 {
		t.Fatalf("standing nn answer after move: %v", got)
	}
}

// TestServeMetricsPerKind: /metrics breaks evaluation cost down by
// query kind — engine counters see every evaluation (one-shot and
// standing), standing aggregates (including guard skips) come from
// the live subscriptions.
func TestServeMetricsPerKind(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_point", "id": 1, "x": 520, "y": 500},
		{"op": "upsert_point", "id": 2, "x": 480, "y": 500},
		{"op": "upsert_object", "id": 3, "region": [480, 480, 520, 520]}]}`)

	// One-shot traffic: two NN evaluations, one range evaluation.
	for i := 0; i < 2; i++ {
		postJSON(t, ts.URL+"/v1/evaluate", `{
			"kind": "nn", "issuer": {"region": [450, 450, 550, 550]}, "k": 2, "nn_samples": 2000}`)
	}
	postJSON(t, ts.URL+"/v1/evaluate", `{
		"issuer": {"region": [450, 450, 550, 550]}, "w": 100, "h": 100}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp)
	for _, want := range []string{
		`ildq_eval_total{kind="nn"} 2`,
		`ildq_eval_samples_total{kind="nn"} 4000`,
		`ildq_eval_total{kind="uncertain"} 1`,
		`ildq_eval_total{kind="points"} 0`,
		`ildq_eval_budget_denied_total{kind="nn"} 0`,
		`ildq_eval_latency_seconds_count{kind="nn"} 2`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// A standing NN query (its registration evaluation counts in the
	// engine totals) plus one guard-skipped far batch.
	reg := postJSON(t, ts.URL+"/v1/queries", `{
		"kind": "nn", "issuer": {"region": [450, 450, 550, 550]}, "k": 2}`)
	id := int64(reg["id"].(float64))
	up := postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_point", "id": 9, "x": 9000, "y": 9000}]}`)
	if up["skipped"].(float64) != 1 {
		t.Fatalf("far point batch was not guard-skipped for the NN query: %v", up)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics = readAll(t, resp)
	for _, want := range []string{
		`ildq_eval_total{kind="nn"} 3`,
		`ildq_standing_queries_by_kind{kind="nn"} 1`,
		`ildq_standing_queries_by_kind{kind="uncertain"} 0`,
		`ildq_standing_guard_skips_total{kind="nn"} 1`,
		`ildq_standing_reevals_total{kind="nn"} 1`,
		"ildq_standing_queries 1",
		"ildq_standing_queries_unlisted 0",
		fmt.Sprintf(`ildq_query_early_stopped_total{query="%d"}`, id),
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// A budget-refused NN request increments the per-kind denial and
	// error counters; it is dispatched (so ildq_eval_total moves) but
	// records no latency observation. 64 candidates at the sample cap
	// exceed the default budget (2^20 × 64 > 2^24).
	var sb strings.Builder
	sb.WriteString(`{"updates": [`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"op": "upsert_point", "id": %d, "x": %d, "y": %d}`, 100+i, 8000+i%8, 8000+i/8)
	}
	sb.WriteString(`]}`)
	postJSON(t, ts.URL+"/v1/updates", sb.String())
	status, _ := postRaw(t, ts.URL+"/v1/evaluate", `{
		"kind": "nn", "issuer": {"region": [7000, 7000, 10000, 10000]}, "k": 64, "nn_samples": 1048576}`)
	if status != http.StatusBadRequest {
		t.Fatalf("over-budget NN: HTTP %d, want 400", status)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics = readAll(t, resp)
	for _, want := range []string{
		`ildq_eval_budget_denied_total{kind="nn"} 1`,
		`ildq_eval_errors_total{kind="nn"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestServeMetricsExposition: the full /metrics output must be valid
// Prometheus text exposition — HELP/TYPE per family, consistent
// types, no duplicate series — as validated by the obs scrape parser.
func TestServeMetricsExposition(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_point", "id": 1, "x": 520, "y": 500},
		{"op": "upsert_object", "id": 2, "region": [480, 480, 520, 520]}]}`)
	postJSON(t, ts.URL+"/v1/evaluate", `{
		"kind": "nn", "issuer": {"region": [450, 450, 550, 550]}, "k": 1}`)
	postJSON(t, ts.URL+"/v1/queries", `{
		"issuer": {"region": [450, 450, 550, 550]}, "w": 100, "h": 100}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	metrics := readAll(t, resp)
	if errs := obs.Lint([]byte(metrics)); len(errs) != 0 {
		t.Fatalf("/metrics does not lint: %v\n%s", errs, metrics)
	}
	// The families the acceptance criteria name: per-kind latency
	// histograms, buffer-pool counters, per-stage cost counters, and
	// the monitor batch histograms.
	for _, want := range []string{
		`ildq_eval_latency_seconds_bucket{kind="nn",le="+Inf"} 1`,
		`ildq_eval_latency_seconds_summary{kind="nn",quantile="0.5"}`,
		`ildq_pool_logical_reads_total{store="point"} 0`,
		`ildq_pool_resident_pages{store="uncertain"} 0`,
		`ildq_eval_node_accesses_total{kind="nn"}`,
		"ildq_monitor_batch_seconds_count 1",
		"ildq_monitor_batch_requalified_objects_count 1",
		"ildq_monitor_requalified_objects_total 0",
		"ildq_monitor_full_reevals_total 0",
		"ildq_cow_publishes_total 1",
		"ildq_slow_queries_total 0",
		"# TYPE go_gc_heap_live_bytes gauge",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestServeMetricsPerQueryCap: the per-standing-query series are
// bounded by -metrics-per-query-limit; queries over the cap are
// summarized by ildq_standing_queries_unlisted instead of labeled.
func TestServeMetricsPerQueryCap(t *testing.T) {
	ts := testServerCfg(t, Config{PerQueryLimit: 2})
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/queries", `{
			"issuer": {"region": [450, 450, 550, 550]}, "w": 100, "h": 100}`)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readAll(t, resp)
	if errs := obs.Lint([]byte(metrics)); len(errs) != 0 {
		t.Fatalf("capped exposition does not lint: %v", errs)
	}
	if n := strings.Count(metrics, "ildq_query_reevals_total{query="); n != 2 {
		t.Fatalf("per-query series = %d, want 2 (capped):\n%s", n, metrics)
	}
	if !strings.Contains(metrics, "ildq_standing_queries_unlisted 1") {
		t.Fatalf("unlisted remainder not reported:\n%s", metrics)
	}
	if !strings.Contains(metrics, "ildq_standing_queries 3") {
		t.Fatalf("standing total lost under the cap:\n%s", metrics)
	}
}

// TestServeTrace: "trace": true on /v1/evaluate returns the request
// id and the per-stage breakdown (pin, filter, refine, merge) without
// changing the answer.
func TestServeTrace(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_point", "id": 1, "x": 520, "y": 500},
		{"op": "upsert_point", "id": 2, "x": 480, "y": 500}]}`)

	ev := postJSON(t, ts.URL+"/v1/evaluate", `{
		"kind": "nn", "issuer": {"region": [450, 450, 550, 550]}, "k": 2, "seed": 7, "trace": true}`)
	if ev["request_id"] == "" {
		t.Fatalf("no request id: %v", ev)
	}
	trace, ok := ev["trace"].([]any)
	if !ok || len(trace) == 0 {
		t.Fatalf("no trace in response: %v", ev)
	}
	stages := map[string]map[string]any{}
	for _, sp := range trace {
		m := sp.(map[string]any)
		stages[m["stage"].(string)] = m
	}
	for _, want := range []string{"pin", "filter", "refine", "merge"} {
		if _, ok := stages[want]; !ok {
			t.Fatalf("trace missing stage %q: %v", want, trace)
		}
	}
	if na := stages["filter"]["node_accesses"].(float64); na <= 0 {
		t.Fatalf("filter stage recorded no node accesses: %v", stages["filter"])
	}
	if s := stages["refine"]["samples"].(float64); s <= 0 {
		t.Fatalf("refine stage recorded no samples: %v", stages["refine"])
	}

	// The same request untraced returns the same matches, and omits
	// the trace key.
	plain := postJSON(t, ts.URL+"/v1/evaluate", `{
		"kind": "nn", "issuer": {"region": [450, 450, 550, 550]}, "k": 2, "seed": 7}`)
	if _, ok := plain["trace"]; ok {
		t.Fatalf("untraced response carries a trace: %v", plain)
	}
	if fmt.Sprint(plain["matches"]) != fmt.Sprint(ev["matches"]) {
		t.Fatalf("tracing changed the answer:\n%v\n%v", plain["matches"], ev["matches"])
	}
}

// TestServeSlowQueryLog: a one-shot evaluation slower than the
// threshold is logged with its request id and counted; sampling only
// writes every Nth line.
func TestServeSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	ts := testServerCfg(t, Config{
		SlowQuery: time.Nanosecond, // everything is slow
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
	})
	postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_point", "id": 1, "x": 500, "y": 500}]}`)
	postJSON(t, ts.URL+"/v1/evaluate", `{
		"kind": "nn", "issuer": {"region": [450, 450, 550, 550]}, "k": 1, "trace": true}`)

	logged := buf.String()
	if !strings.Contains(logged, "slow query") {
		t.Fatalf("no slow-query line:\n%s", logged)
	}
	for _, want := range []string{"request_id=", "kind=nn", "duration_ms=", "stages="} {
		if !strings.Contains(logged, want) {
			t.Fatalf("slow-query line missing %q:\n%s", want, logged)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(readAll(t, resp), "ildq_slow_queries_total 1") {
		t.Fatal("slow query not counted")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer for the log handler (the
// HTTP handler goroutine writes, the test goroutine reads).
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestServeStream reads the SSE endpoint: the first event must be the
// registration snapshot, subsequent events the update deltas, and
// replaying them reconstructs the answer.
func TestServeStream(t *testing.T) {
	ts := testServer(t)

	postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_object", "id": 1, "region": [480, 480, 520, 520]}]}`)
	reg := postJSON(t, ts.URL+"/v1/queries", `{
		"issuer": {"region": [450, 450, 550, 550]}, "w": 100, "h": 100}`)
	id := int64(reg["id"].(float64))

	resp, err := http.Get(fmt.Sprintf("%s/v1/queries/%d/stream", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := make(chan DeltaJSON, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if data, ok := strings.CutPrefix(line, "data: "); ok && data != "{}" {
				var d DeltaJSON
				if json.Unmarshal([]byte(data), &d) == nil {
					events <- d
				}
			}
		}
	}()

	first := <-events
	if len(first.Entered) != 1 || first.Entered[0].ID != 1 {
		t.Fatalf("snapshot event: %+v", first)
	}

	postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_object", "id": 1, "region": [3000, 3000, 3040, 3040]},
		{"op": "upsert_object", "id": 2, "region": [490, 490, 530, 530]}]}`)
	second := <-events
	if len(second.Left) != 1 || second.Left[0] != 1 {
		t.Fatalf("delta event Left: %+v", second)
	}
	if len(second.Entered) != 1 || second.Entered[0].ID != 2 {
		t.Fatalf("delta event Entered: %+v", second)
	}
}

func getJSON(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding: %v", url, err)
	}
	return resp.StatusCode, out
}

// TestServeHealthzEphemeral: without -data-dir the health report says
// durable=false and a forced checkpoint is refused with 409.
func TestServeHealthzEphemeral(t *testing.T) {
	ts := testServer(t)

	code, health := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, health)
	}
	if health["durable"] != false {
		t.Fatalf("ephemeral healthz durable = %v", health["durable"])
	}

	resp, err := http.Post(ts.URL+"/v1/admin/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint on ephemeral engine: HTTP %d", resp.StatusCode)
	}
}

// TestServeDurability drives the admin surface over a durable engine:
// healthz reports the durability posture, /v1/admin/checkpoint
// persists the state (and is a skipped no-op when re-issued), and a
// reopen of the same directory recovers the checkpointed version.
func TestServeDurability(t *testing.T) {
	dir := t.TempDir()
	eng, err := core.Open(dir, core.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(monitor.New(eng, monitor.Config{Workers: 1}), core.EvalOptions{}, Config{}))

	code, health := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK || health["durable"] != true {
		t.Fatalf("healthz: %d %v", code, health)
	}
	if health["wal_replayed_at_boot"] != float64(0) {
		t.Fatalf("fresh boot wal_replayed_at_boot = %v", health["wal_replayed_at_boot"])
	}

	postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_object", "id": 7, "region": [100, 100, 140, 140]}]}`)

	ck := postJSON(t, ts.URL+"/v1/admin/checkpoint", "")
	if ck["version"] != float64(1) || ck["skipped"] != false {
		t.Fatalf("first checkpoint: %v", ck)
	}
	ck = postJSON(t, ts.URL+"/v1/admin/checkpoint", "")
	if ck["skipped"] != true {
		t.Fatalf("repeat checkpoint not skipped: %v", ck)
	}

	_, health = getJSON(t, ts.URL+"/healthz")
	if health["last_checkpoint_version"] != float64(1) {
		t.Fatalf("healthz after checkpoint: %v", health)
	}
	if health["batches_since_checkpoint"] != float64(0) {
		t.Fatalf("batches_since_checkpoint = %v", health["batches_since_checkpoint"])
	}
	if _, ok := health["last_checkpoint_age_seconds"]; !ok {
		t.Fatalf("missing last_checkpoint_age_seconds: %v", health)
	}

	ts.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := core.Open(dir, core.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if eng2.Version() != 1 || eng2.NumUncertain() != 1 {
		t.Fatalf("recovered version=%d uncertain=%d", eng2.Version(), eng2.NumUncertain())
	}
}
