package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

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

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var rj serve.RequestJSON
	if err := serve.DecodeBody(r, &rj); err != nil {
		serve.WriteError(s.r.log, w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.r.Evaluate(r.Context(), rj)
	if err != nil {
		serve.WriteRequestError(s.r.log, w, err)
		return
	}
	serve.WriteEvaluateResponse(s.r.log, w, &resp)
}

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	var body serve.UpdatesRequest
	if err := serve.DecodeBody(r, &body); err != nil {
		serve.WriteError(s.r.log, w, http.StatusBadRequest, err)
		return
	}
	// Route regardless of the client connection: the shard batches
	// commit either way, and the ownership cache must track them.
	resp, err := s.r.ApplyUpdates(context.WithoutCancel(r.Context()), body)
	if err != nil {
		serve.WriteRequestError(s.r.log, w, err)
		return
	}
	serve.WriteJSON(s.r.log, w, http.StatusOK, resp)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var rj serve.RequestJSON
	if err := serve.DecodeBody(r, &rj); err != nil {
		serve.WriteError(s.r.log, w, http.StatusBadRequest, err)
		return
	}
	resp, miss, err := s.r.Register(r.Context(), rj)
	if err != nil {
		serve.WriteRequestError(s.r.log, w, err)
		return
	}
	if miss != nil {
		s.r.log.Warn("standing query registered on a partial fleet", "id", resp.ID, "missing", miss)
	}
	serve.WriteRegisterResponse(s.r.log, w, &resp)
}

func (s *Server) handleDeregister(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		serve.WriteError(s.r.log, w, http.StatusBadRequest, fmt.Errorf("bad query id: %w", err))
		return
	}
	if err := s.r.Deregister(r.Context(), id); err != nil {
		serve.WriteError(s.r.log, w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleStream multiplexes the member shards' SSE delta streams into
// one stream. Every frame is forwarded verbatim with its per-shard
// engine version and tagged with the shard id, so the (shard, version)
// pairs form a version vector and a consumer can replay each shard's
// sub-stream bit-exactly; a replicated straddler appears in multiple
// sub-streams with bit-identical probabilities (dedup by owner — the
// lowest shard id carrying the object — when folding to a global set).
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
	serve.StartSSE(w)

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	frames := make(chan serve.DeltaJSON, 16)
	// A member stream that loses a frame reports here, once; the buffer
	// holds one report per member so no reader blocks on it.
	broken := make(chan error, len(sub.members))
	var wg sync.WaitGroup
	for _, m := range sub.members {
		c := s.r.shards[m.shard]
		wg.Add(1)
		go func(c *Client, subID int64) {
			defer wg.Done()
			body, err := c.OpenStream(ctx, subID)
			if err != nil {
				s.r.log.Warn("shard stream unavailable", "shard", c.ID, "err", err)
				return
			}
			defer body.Close()
			err = readSSE(body, func(d serve.DeltaJSON) bool {
				d.Shard = c.ID
				select {
				case frames <- d:
					return true
				case <-ctx.Done():
					return false
				}
			})
			if err != nil {
				// The delta in that frame is gone and everything after
				// it on this sub-stream would be replayed over a hole.
				s.r.m.framesDropped.With(c.ID).Inc()
				s.r.log.Warn("shard stream frame dropped; ending subscriber stream", "shard", c.ID, "query", id, "err", err)
				broken <- fmt.Errorf("shard %s: %w", c.ID, err)
			}
		}(c, m.subID)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	for {
		select {
		case err := <-broken:
			// Tell the subscriber its replay is no longer the fleet's
			// answer, so it re-registers instead of trusting the gap.
			serve.WriteSSE(w, "error", map[string]string{"error": "delta stream broken, re-register the query: " + err.Error()}) //nolint:errcheck // the stream ends either way
			return
		case d := <-frames:
			if serve.WriteSSE(w, "", d) != nil {
				return
			}
		case <-done:
			// Drain anything buffered before closing.
			for {
				select {
				case d := <-frames:
					if serve.WriteSSE(w, "", d) != nil {
						return
					}
				default:
					serve.WriteSSE(w, "close", struct{}{}) //nolint:errcheck // the stream ends either way
					return
				}
			}
		case <-ctx.Done():
			return
		}
	}
}

// readSSE parses "data: {json}" frames off a server-sent-event body,
// invoking fn per decoded delta until the stream ends, a close event
// arrives, or fn returns false. A frame that cannot be decoded, or is
// too long to scan, ends the read with an error: the delta it carried
// is lost, and skipping it would hand the consumer a stream with a
// hole in it.
func readSSE(body io.Reader, fn func(serve.DeltaJSON) bool) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	closing := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: close":
			closing = true
		case strings.HasPrefix(line, "data: "):
			if closing {
				return nil
			}
			var d serve.DeltaJSON
			if err := json.Unmarshal([]byte(line[len("data: "):]), &d); err != nil {
				return fmt.Errorf("undecodable delta frame: %w", err)
			}
			if !fn(d) {
				return nil
			}
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		return fmt.Errorf("delta frame: %w", sc.Err())
	}
	return nil
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
