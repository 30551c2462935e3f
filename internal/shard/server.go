package shard

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
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
	if err := serve.DecodeBody(w, r, &rj); err != nil {
		serve.WriteBodyError(s.r.log, w, err)
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
	var rj serve.RequestJSON
	if err := serve.DecodeBody(w, r, &rj); err != nil {
		serve.WriteBodyError(s.r.log, w, err)
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
// one stream. Every frame is forwarded as the shard's own bytes, its
// per-shard engine version included, with the shard id spliced in as
// its shard tag (serve.AppendRelayedDelta) — keys this binary does not
// know pass through as the shard wrote them — so the (shard, version)
// pairs form a version vector and a consumer can replay each shard's
// sub-stream bit-exactly; a replicated straddler appears in multiple
// sub-streams with bit-identical probabilities (dedup by owner — the
// lowest shard id carrying the object — when folding to a global set).
// A member stream that cannot be followed to its close event — it does
// not open, it carries a frame the relay cannot use, it ends without
// closing — ends the subscriber's stream with an error event: replay
// past that point would not be the fleet's answer.
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
	frames := make(chan *[]byte, 16)
	// A member stream that breaks reports here, once, after the frames it
	// relayed; the buffer holds one report per member so no reader
	// blocks on it.
	broken := make(chan error, len(sub.members))
	var wg sync.WaitGroup
	for _, m := range sub.members {
		c := s.r.shards[m.shard]
		wg.Add(1)
		go func(c *Client, subID int64) {
			defer wg.Done()
			err := relay(ctx, c, subID, frames)
			if err == nil || ctx.Err() != nil {
				return
			}
			if errors.Is(err, serve.ErrBody) || errors.Is(err, bufio.ErrTooLong) {
				// The delta in that frame is gone and everything after
				// it on this sub-stream would be replayed over a hole.
				s.r.m.framesDropped.With(c.ID).Inc()
			} else {
				s.r.m.membersLost.With(c.ID).Inc()
			}
			s.r.log.Warn("shard delta stream broken; ending subscriber stream", "shard", c.ID, "query", id, "err", err)
			broken <- err
		}(c, m.subID)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	forward := func(f *[]byte) bool {
		err := serve.WriteSSE(w, "", *f)
		serve.PutBuffer(f, *f)
		return err == nil
	}
	// drain forwards what the members relayed before the stream ends.
	drain := func() bool {
		for {
			select {
			case f := <-frames:
				if !forward(f) {
					return false
				}
			default:
				return true
			}
		}
	}
	// end tells the subscriber its replay is no longer the fleet's
	// answer, so it re-registers instead of trusting the gap.
	end := func(err error) {
		if drain() {
			serve.WriteSSEError(w, "delta stream broken, re-register the query: "+err.Error()) //nolint:errcheck // the stream ends either way
		}
	}
	for {
		select {
		case err := <-broken:
			end(err)
			return
		case f := <-frames:
			if !forward(f) {
				return
			}
		case <-done:
			// A member reports a break before it is done.
			select {
			case err := <-broken:
				end(err)
			default:
				if drain() {
					serve.WriteSSE(w, "close", []byte("{}")) //nolint:errcheck // the stream ends either way
				}
			}
			return
		case <-ctx.Done():
			return
		}
	}
}

// relay follows one member's delta stream, sending each frame it
// carries to frames as the router relays it, and returns nil once the
// member closes the stream. Anything else is an error: the stream does
// not open, a frame is refused (serve.ErrBody) or too long
// (bufio.ErrTooLong), the read fails, or the stream ends without its
// close event — or ctx ends.
func relay(ctx context.Context, c *Client, subID int64, frames chan<- *[]byte) error {
	body, err := c.OpenStream(ctx, subID)
	if err != nil {
		return err
	}
	defer body.Close()
	err = readSSE(body, func(data []byte) error {
		f := serve.GetBuffer()
		frame, err := serve.AppendRelayedDelta((*f)[:0], data, c.ID)
		if err != nil {
			serve.PutBuffer(f, *f)
			return err
		}
		*f = frame
		select {
		case frames <- f:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	if err != nil {
		return fmt.Errorf("shard %s: stream %d: %w", c.ID, subID, err)
	}
	return nil
}

var errNoClose = errors.New("delta stream ended without a close event")

// readSSE hands fn the data of each "data: {json}" frame on a
// server-sent-event body until the close event, which ends the read
// with nil. fn's error ends it too; so does a line too long to scan, a
// failed read and the body's end before the close event.
func readSSE(body io.Reader, fn func(data []byte) error) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	closing := false
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case string(line) == "event: close":
			closing = true
		case bytes.HasPrefix(line, []byte("data: ")):
			if closing {
				return nil
			}
			if err := fn(line[len("data: "):]); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("delta stream: %w", err)
	}
	return errNoClose
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
