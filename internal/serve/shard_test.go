package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/monitor"
	"repro/internal/uncertain"
	"repro/internal/wire"
)

// TestServeHealthzShardIdentity: a server launched as a fleet member
// reports its shard id and tile spec on /healthz; a standalone server
// omits both fields.
func TestServeHealthzShardIdentity(t *testing.T) {
	ts := testServerCfg(t, Config{ShardID: "2", Tiles: "grid:4x2@10000x10000"})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.ShardID != "2" {
		t.Errorf("shard_id = %q, want 2", h.ShardID)
	}
	if h.Tiles != "grid:4x2@10000x10000" {
		t.Errorf("tiles = %q, want grid:4x2@10000x10000", h.Tiles)
	}

	solo := testServer(t)
	resp2, err := http.Get(solo.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["shard_id"]; ok {
		t.Error("standalone /healthz should omit shard_id")
	}
	if _, ok := raw["tiles"]; ok {
		t.Error("standalone /healthz should omit tiles")
	}
}

// postNNCandidates posts one /v1/nn/candidates body and decodes the
// frame that answers it, holding the reply to the endpoint's contract:
// the frame media type and an announced length (no chunking).
func postNNCandidates(t *testing.T, base, body string) core.NNCandidateSet {
	t.Helper()
	resp, err := http.Post(base+"/v1/nn/candidates", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.NNFrameType {
		t.Fatalf("Content-Type = %q, want %q", ct, wire.NNFrameType)
	}
	if resp.ContentLength != int64(len(raw)) {
		t.Fatalf("Content-Length = %d for a %d-byte frame", resp.ContentLength, len(raw))
	}
	set, err := wire.DecodeNNCandidateSet(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestServeNNCandidatesEndpoint exercises the shard half of the fleet
// NN protocol over HTTP: candidates come back ID-sorted with the local
// tau in a binary frame, feeding them to core.EvaluateNNCandidates
// reproduces the local /v1/evaluate result bit-for-bit, tau_bound
// narrows the sweep, limit truncates it, an empty shard reports tau =
// +Inf as itself, and an error reply stays JSON.
func TestServeNNCandidatesEndpoint(t *testing.T) {
	pts := make([]uncertain.PointObject, 0, 64)
	for i := range 64 {
		pts = append(pts, uncertain.PointObject{
			ID:  uncertain.ID(i),
			Loc: geom.Pt(float64(137*i%1000)*10, float64(271*i%1000)*10),
		})
	}
	eng, err := core.NewEngine(pts, nil, core.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(NewServer(monitor.New(eng, monitor.Config{Workers: 1}), core.EvalOptions{}, Config{}))
	t.Cleanup(hts.Close)
	ts := hts.URL

	const nnReq = `"request": {"kind": "nn", "k": 3,
		"issuer": {"region": [4800, 4800, 5200, 5200]},
		"nn_samples": 256, "seed": 41}`
	set := postNNCandidates(t, ts, `{`+nnReq+`}`)
	if len(set.Candidates) == 0 || math.IsInf(set.Tau, 1) || set.Truncated {
		t.Fatalf("expected a full candidate list and a finite tau, got %+v", set)
	}
	if set.Version != eng.Version() {
		t.Errorf("frame version %d, engine at %d", set.Version, eng.Version())
	}

	// Re-evaluating the wire candidates must reproduce /v1/evaluate.
	wireReq := RequestJSON{Kind: "nn", K: 3, NNSamples: 256, Seed: 41,
		Issuer: IssuerJSON{Region: []float64{4800, 4800, 5200, 5200}}}
	req, err := wireReq.ToRequest()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.EvaluateNNCandidates(t.Context(), req, set.Candidates, set.Tau)
	if err != nil {
		t.Fatal(err)
	}
	local := postJSON(t, ts+"/v1/evaluate", `{"kind": "nn", "k": 3,
		"issuer": {"region": [4800, 4800, 5200, 5200]},
		"nn_samples": 256, "seed": 41}`)
	matches := local["matches"].([]any)
	if len(matches) != len(res.Matches) {
		t.Fatalf("reassembled %d matches, local evaluate %d", len(res.Matches), len(matches))
	}
	for i, m := range matches {
		mm := m.(map[string]any)
		if int64(mm["id"].(float64)) != int64(res.Matches[i].ID) {
			t.Errorf("match %d: id %v vs %v", i, mm["id"], res.Matches[i].ID)
		}
		if math.Float64bits(mm["p"].(float64)) != math.Float64bits(res.Matches[i].P) {
			t.Errorf("match %d: p not bit-exact: %v vs %v", i, mm["p"], res.Matches[i].P)
		}
	}

	// tau_bound below the local tau prunes the candidate sweep (the
	// router's bounded re-issue) without changing the reported tau.
	bounded := postNNCandidates(t, ts, fmt.Sprintf(`{`+nnReq+`, "tau_bound": %g}`, set.Tau*0.5))
	if len(bounded.Candidates) > len(set.Candidates) {
		t.Errorf("tau_bound grew the candidate set: %d > %d", len(bounded.Candidates), len(set.Candidates))
	}
	if bounded.Tau != set.Tau {
		t.Errorf("tau_bound changed the reported tau: %v vs %v", bounded.Tau, set.Tau)
	}

	// A limit below the tally marks the frame truncated.
	if len(set.Candidates) < 2 {
		t.Fatalf("need at least 2 candidates to truncate, have %d", len(set.Candidates))
	}
	cut := postNNCandidates(t, ts, `{`+nnReq+`, "limit": 1}`)
	if !cut.Truncated || len(cut.Candidates) != 1 || cut.Tau != set.Tau {
		t.Errorf("limit 1: want one candidate, truncated, tau %v; got %+v", set.Tau, cut)
	}

	// An empty shard reports no candidates and tau = +Inf.
	none := postNNCandidates(t, testServer(t).URL, `{`+nnReq+`}`)
	if len(none.Candidates) != 0 || !math.IsInf(none.Tau, 1) {
		t.Errorf("empty shard: want no candidates and tau +Inf, got %+v", none)
	}

	// Malformed bodies get structured 400s, in JSON like every error.
	resp, err := http.Post(ts+"/v1/nn/candidates", "application/json",
		strings.NewReader(`{"request": {"kind": "points", "issuer": {"region": [0,0,1,1]}, "w": 1, "h": 1, "threshold": 0.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var bad map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
		t.Fatalf("400 body is not JSON: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Content-Type") != "application/json" || bad["field"] != "kind" {
		t.Errorf("non-NN request: HTTP %d %s %v, want a JSON 400 naming field kind",
			resp.StatusCode, resp.Header.Get("Content-Type"), bad)
	}
}
