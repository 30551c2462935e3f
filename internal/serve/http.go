package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
)

// This file is the one HTTP helper set of the wire format: body
// decoding, JSON and error replies, and the server-sent-event frame.
// ildq-serve and the fleet router (internal/shard) both answer through
// it, so a status code, an error shape or a frame layout cannot differ
// between a standalone server and a fleet.

// MaxBodyBytes caps every JSON body a fleet process reads off a
// socket: requests at the servers, shard replies at the router.
const MaxBodyBytes = 16 << 20

// DecodeBody decodes a JSON body, rejecting unknown fields — a typo
// in a request must fail loudly, not be silently ignored.
func DecodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// bodyPool holds the buffers replies are encoded into. A buffer that
// grew past maxPooledBody is dropped, so one huge answer does not pin
// its memory to the pool.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// writeBody encodes a reply into a pooled buffer and only then commits
// to it: Content-Length, the status, one Write. A value that does not
// encode (a NaN in a float field — a bug caught by tests) is therefore
// a clean 500 with a JSON error body, not a truncated 200, and no reply
// is chunked. A Write failure means the client is gone, so it is logged
// at debug rather than surfaced.
func writeBody(log *slog.Logger, w http.ResponseWriter, status int, encode func(dst []byte) ([]byte, error)) {
	buf := bodyPool.Get().(*[]byte)
	body, err := encode((*buf)[:0])
	if err != nil {
		log.Error("response does not encode", "err", err)
		status = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": err.Error()}) // a map of strings encodes
		body = append(body, '\n')
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		log.Debug("response write failed", "err", err)
	}
	if cap(body) <= maxPooledBody {
		*buf = body
		bodyPool.Put(buf)
	}
}

// WriteJSON sends v as the response body through encoding/json: every
// reply but the two that carry a match list, which have an encoder of
// their own (codec.go).
func WriteJSON(log *slog.Logger, w http.ResponseWriter, status int, v any) {
	writeBody(log, w, status, func(dst []byte) ([]byte, error) {
		buf := bytes.NewBuffer(dst)
		err := json.NewEncoder(buf).Encode(v)
		return buf.Bytes(), err
	})
}

// WriteEvaluateResponse answers POST /v1/evaluate with r.
func WriteEvaluateResponse(log *slog.Logger, w http.ResponseWriter, r *EvaluateResponse) {
	writeBody(log, w, http.StatusOK, func(dst []byte) ([]byte, error) {
		return AppendEvaluateResponse(dst, r)
	})
}

// WriteRegisterResponse answers POST /v1/queries with r.
func WriteRegisterResponse(log *slog.Logger, w http.ResponseWriter, r *RegisterResponse) {
	writeBody(log, w, http.StatusCreated, func(dst []byte) ([]byte, error) {
		return AppendRegisterResponse(dst, r)
	})
}

// WriteError reports an error as JSON. Request-validation failures
// carry the offending Request field so clients can see exactly what
// to fix ({"error": ..., "field": ...}).
func WriteError(log *slog.Logger, w http.ResponseWriter, status int, err error) {
	body := map[string]string{"error": err.Error()}
	var reqErr *core.RequestError
	if errors.As(err, &reqErr) {
		body["field"] = reqErr.Field
	}
	WriteJSON(log, w, status, body)
}

// WriteRequestError maps an evaluation error to a status: malformed
// requests (typed *core.RequestError) and budget refusals (the
// request asked for more Monte-Carlo work than the server allows) are
// the client's fault (400), anything else the server's (500).
func WriteRequestError(log *slog.Logger, w http.ResponseWriter, err error) {
	var reqErr *core.RequestError
	switch {
	case errors.As(err, &reqErr):
		WriteError(log, w, http.StatusBadRequest, err)
	case errors.Is(err, core.ErrSampleBudget):
		WriteError(log, w, http.StatusBadRequest,
			fmt.Errorf("%w (shrink the issuer region or nn_samples, or raise the server's -max-samples)", err))
	default:
		WriteError(log, w, http.StatusInternalServerError, err)
	}
}

// StartSSE opens a server-sent-event response: the stream headers and
// an immediate flush, so the client sees the stream open before the
// first frame exists.
func StartSSE(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// WriteSSE writes one server-sent-event frame — "event: <event>" when
// event is non-empty, then v as one "data:" line of JSON and the blank
// line that ends the frame — and flushes it to the client.
func WriteSSE(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var frame []byte
	if event != "" {
		frame = append(append(frame, "event: "...), event...)
		frame = append(frame, '\n')
	}
	frame = append(append(append(frame, "data: "...), data...), "\n\n"...)
	if _, err := w.Write(frame); err != nil {
		return err
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}
