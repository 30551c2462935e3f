package serve

import (
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/wire"
)

// Typed response bodies. The handlers encode these (instead of ad-hoc
// maps) so a fleet router — or any Go client — can decode shard
// responses with the exact same types the server encodes. What keeps
// probabilities bit-exact across the scatter-gather hop is that a
// float64 is rendered at round-trip precision in both directions, by
// one encoder/decoder pair per body. Every body a query or a write
// crosses the fleet in has a pair of its own in codec.go — the query
// request and the NN candidate request, the match lists
// (EvaluateResponse, RegisterResponse) and the router's relay of a
// shard's, the update batch and its reply, the delta frame and the
// router's relay of it — and TestCodecMatchesEncodingJSON and the fuzz
// targets pin each pair to encoding/json byte for byte, so the two
// cannot drift; encoding/json is left with the small bodies off those
// paths (/healthz, error replies). The one success body that is not
// JSON is the reply of /v1/nn/candidates, a binary frame
// (internal/wire) that carries each float64 as its bits.

// EvaluateResponse is the body of POST /v1/evaluate.
type EvaluateResponse struct {
	RequestID string      `json:"request_id"`
	Kind      string      `json:"kind"`
	Version   uint64      `json:"version"`
	Matches   []MatchJSON `json:"matches"`
	Cost      CostJSON    `json:"cost"`
	Trace     []SpanJSON  `json:"trace,omitempty"`
	// Partial marks a router-merged response missing one or more
	// shards (fail-open); MissingShards lists them. A single server
	// never sets either.
	Partial       bool     `json:"partial,omitempty"`
	MissingShards []string `json:"missing_shards,omitempty"`
}

// RegisterResponse is the body of POST /v1/queries.
type RegisterResponse struct {
	ID       int64       `json:"id"`
	Kind     string      `json:"kind"`
	Snapshot []MatchJSON `json:"snapshot"`
	// Partial / MissingShards: as in EvaluateResponse, router only — a
	// registration some shard under its guard did not accept.
	Partial       bool     `json:"partial,omitempty"`
	MissingShards []string `json:"missing_shards,omitempty"`
}

// UpdatesRequest is the body of POST /v1/updates.
type UpdatesRequest struct {
	Updates []UpdateJSON `json:"updates"`
}

// UpdatesResponse is the body of POST /v1/updates.
type UpdatesResponse struct {
	Seq         uint64   `json:"seq"`
	Applied     int      `json:"applied"`
	Missing     int      `json:"missing"`
	Version     uint64   `json:"version"`
	Reevaluated int      `json:"reevaluated"`
	Skipped     int      `json:"skipped"`
	Entered     int      `json:"entered"`
	Left        int      `json:"left"`
	Changed     int      `json:"changed"`
	Errors      []string `json:"errors,omitempty"`
	// Versions is the per-shard version vector of a router-merged
	// ingest: shard id -> engine version after this batch. A single
	// server reports only Version.
	Versions map[string]uint64 `json:"versions,omitempty"`
	// Partial / MissingShards: as in EvaluateResponse, router only.
	Partial       bool     `json:"partial,omitempty"`
	MissingShards []string `json:"missing_shards,omitempty"`
}

// HealthzResponse is the body of GET /healthz (durability fields
// omitted — decode the raw map for those).
type HealthzResponse struct {
	Status  string `json:"status"`
	Version uint64 `json:"version"`
	ShardID string `json:"shard_id,omitempty"`
	Tiles   string `json:"tiles,omitempty"`
}

// NNCandidatesRequest is the body of POST /v1/nn/candidates — the
// shard half of the fleet NN protocol (see core.NNCandidates). Request
// must be a KindNN wire request.
type NNCandidatesRequest struct {
	Request RequestJSON `json:"request"`
	// TauBound, when positive, caps the collection radius (a router
	// re-issue after tightening the global tau).
	TauBound float64 `json:"tau_bound,omitempty"`
	// Limit caps the returned candidate count; exceeding it sets
	// Truncated on the response.
	Limit int `json:"limit,omitempty"`
}

// MaxNNCandidateLimit bounds the candidate list one shard ships per NN
// collection, whatever limit the request asks for; the router sizes
// its reply cap from it.
const MaxNNCandidateLimit = 1 << 16

// POST /v1/nn/candidates — NN candidate collection for a fleet router.
// The endpoint is fleet-internal (shard.Client.NNCandidates is its one
// caller): the request and every error reply are JSON like the rest of
// the wire format, the success reply is the wire.NNFrameType frame,
// appended straight from the snapshot's candidate set and sent with a
// Content-Length.
func (s *Server) handleNNCandidates(w http.ResponseWriter, r *http.Request) {
	body, err := readDecoded(w, r, DecodeNNCandidatesRequest)
	if err != nil {
		WriteBodyError(s.log, w, err)
		return
	}
	req, err := body.Request.ToRequest()
	if err != nil {
		WriteError(s.log, w, http.StatusBadRequest, err)
		return
	}
	if req.Options == (core.EvalOptions{}) {
		req.Options = s.defaults
	}
	limit := body.Limit
	if limit <= 0 || limit > MaxNNCandidateLimit {
		limit = MaxNNCandidateLimit
	}
	snap := s.mon.Engine().Snapshot()
	defer snap.Close()
	set, err := snap.NNCandidates(r.Context(), req, core.NNCandidateOptions{
		TauBound: body.TauBound,
		Limit:    limit,
	})
	if err != nil {
		WriteRequestError(s.log, w, err)
		return
	}
	frame := wire.AppendNNCandidateSet(make([]byte, 0, wire.MaxNNCandidateSetSize(len(set.Candidates))), set)
	w.Header().Set("Content-Type", wire.NNFrameType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	if _, err := w.Write(frame); err != nil {
		s.log.Debug("response write failed", "err", err)
	}
}
