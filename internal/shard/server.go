package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/serve"
)

// Server is the router's HTTP front: the standard ildq-serve wire
// format, answered by the fleet. One-shot evaluation, update
// ingestion, standing range queries with multiplexed delta streams,
// /metrics, and a fleet /healthz.
type Server struct {
	r   *Router
	mux *http.ServeMux
}

// NewServer wraps a router in its HTTP handler.
func NewServer(r *Router) *Server {
	s := &Server{r: r, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("POST /v1/updates", s.handleUpdates)
	s.mux.HandleFunc("POST /v1/queries", s.handleRegister)
	s.mux.HandleFunc("DELETE /v1/queries/{id}", s.handleDeregister)
	s.mux.HandleFunc("GET /v1/queries/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleEvaluate answers a one-shot request; a range answer's match
// list is the shards' own bytes, merged (serve.AppendRelayedEvaluateResponse).
// The replies' buffers go back once the body is written.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	rj, err := serve.ReadRequest(w, r)
	if err != nil {
		serve.WriteBodyError(s.r.log, w, err)
		return
	}
	a, err := s.r.evaluate(r.Context(), rj)
	if err != nil {
		serve.WriteRequestError(s.r.log, w, err)
		return
	}
	serve.WriteBody(s.r.log, w, http.StatusOK, a.appendTo)
	a.bufs.release()
}

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	body, err := serve.ReadUpdatesRequest(w, r)
	if err != nil {
		serve.WriteBodyError(s.r.log, w, err)
		return
	}
	// Route regardless of the client connection: the shard batches
	// commit either way, and the ownership cache must track them.
	resp, err := s.r.ApplyUpdates(context.WithoutCancel(r.Context()), body)
	if err != nil {
		serve.WriteRequestError(s.r.log, w, err)
		return
	}
	serve.WriteUpdatesResponse(s.r.log, w, &resp)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	rj, err := serve.ReadRequest(w, r)
	if err != nil {
		serve.WriteBodyError(s.r.log, w, err)
		return
	}
	g, miss, err := s.r.register(r.Context(), rj)
	if err != nil {
		serve.WriteRequestError(s.r.log, w, err)
		return
	}
	if miss != nil {
		s.r.log.Warn("standing query registered on a partial fleet", "id", g.resp.ID, "missing", miss)
	}
	serve.WriteBody(s.r.log, w, http.StatusCreated, g.appendTo)
	g.bufs.release()
}

func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		serve.WriteError(s.r.log, w, http.StatusBadRequest, fmt.Errorf("bad query id: %w", err))
		return
	}
	if err := s.r.Deregister(r.Context(), id); err != nil {
		status := http.StatusBadGateway // a member shard could not be reached
		if errors.Is(err, errNoStandingQuery) {
			status = http.StatusNotFound
		}
		serve.WriteError(s.r.log, w, status, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStream writes a router standing query's delta stream: the
// frames its member shards' feeds delivered (feed.go), each one the
// shard's own bytes — its per-shard engine version included — with the
// shard id spliced in as its shard tag (serve.AppendRelayedDelta); keys
// this binary does not know pass through as the shard wrote them. The
// (shard, version) pairs form a version vector, so a consumer can replay
// each shard's sub-stream bit-exactly; a replicated straddler appears in
// several sub-streams with bit-identical probabilities (dedup by owner —
// the lowest shard id carrying the object — when folding to a global
// set). Frames wait for a subscriber that is not connected, so one that
// connects late still sees the registration snapshot first; a query has
// one subscriber at a time (409 for a second). The stream ends with
// event: close once every member has closed, and with an error event
// when a member cannot be followed — its feed would not open, broke, or
// carried a frame the relay cannot use — or the subscriber fell
// maxBuffered behind: replay past that point would not be the fleet's
// answer.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		serve.WriteError(s.r.log, w, http.StatusBadRequest, fmt.Errorf("bad query id: %w", err))
		return
	}
	sub, ok := s.r.Subscription(id)
	if !ok {
		serve.WriteError(s.r.log, w, http.StatusNotFound, fmt.Errorf("no standing query %d", id))
		return
	}
	if !sub.claim() {
		serve.WriteError(s.r.log, w, http.StatusConflict, fmt.Errorf("standing query %d is already being streamed", id))
		return
	}
	serve.StartSSE(w)
	flusher, _ := w.(http.Flusher)
	for {
		frames, end, ok := sub.take(r.Context())
		if !ok {
			sub.done(nil, true)
			return
		}
		_, err := w.Write(append(frames, end...))
		if err != nil {
			// Some of the frames may be gone: a later subscriber must not
			// replay over the hole.
			sub.fail("a write to the previous subscriber failed")
		} else if flusher != nil {
			flusher.Flush()
		}
		leaving := err != nil || end != nil
		sub.done(frames, leaving)
		if leaving {
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.r.m.reg.WriteText(w) //nolint:errcheck // client gone
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rep := s.r.Health(r.Context())
	status := http.StatusOK
	if rep.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSON(s.r.log, w, status, rep)
}
