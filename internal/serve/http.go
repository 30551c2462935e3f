package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
)

// This file is the one HTTP helper set of the wire format: body
// reading and decoding (and the 413 for a body over the cap), JSON and
// error replies, and the server-sent-event frame.
// ildq-serve and the fleet router (internal/shard) both answer through
// it, so a status code, an error shape or a frame layout cannot differ
// between a standalone server and a fleet.

// MaxBodyBytes caps every JSON body a fleet process reads off a
// socket: requests at the servers, shard replies at the router.
const MaxBodyBytes = 16 << 20

// ReadRequest reads the body of POST /v1/evaluate or POST /v1/queries
// and decodes it with DecodeRequest: unknown fields are refused — a
// typo in a request must fail loudly, not be silently ignored.
func ReadRequest(w http.ResponseWriter, r *http.Request) (RequestJSON, error) {
	return readDecoded(w, r, DecodeRequest)
}

// ReadUpdatesRequest reads the body of POST /v1/updates and decodes it
// with DecodeUpdatesRequest.
func ReadUpdatesRequest(w http.ResponseWriter, r *http.Request) (UpdatesRequest, error) {
	return readDecoded(w, r, DecodeUpdatesRequest)
}

// readDecoded reads a request body into a pooled buffer and decodes it;
// decode's result shares no memory with the buffer.
func readDecoded[T any](w http.ResponseWriter, r *http.Request, decode func([]byte) (T, error)) (T, error) {
	buf := GetBuffer()
	body, err := readBody(w, r, *buf)
	var v T
	if err == nil {
		v, err = decode(body)
	}
	PutBuffer(buf, body)
	return v, err
}

// maxPresize bounds the room readBody reserves on a client's word: a
// body announced larger grows only as its bytes arrive, so a client
// that announces the cap and stalls holds what it sent, not the cap.
const maxPresize = 64 << 10

// readBody reads a request body whole through the MaxBodyBytes cap into
// dst, which is grown first to the announced Content-Length up to
// maxPresize, plus the room for the read that sees the end — one read
// and no copy for a body within the bound.
func readBody(w http.ResponseWriter, r *http.Request, dst []byte) ([]byte, error) {
	buf := bytes.NewBuffer(dst[:0])
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPresize)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	return buf.Bytes(), err
}

// WriteBodyError answers a request whose body could not be read or
// decoded: 413 when it ran past MaxBodyBytes, 400 for anything else.
func WriteBodyError(log *slog.Logger, w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteError(log, w, status, err)
}

// bufferPool holds the buffers request and reply bodies — the router's
// reads of shard replies included — and relayed delta frames pass
// through. A buffer that grew past maxPooledBuffer is dropped, so one
// huge body does not pin its memory to the pool.
var bufferPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuffer = 1 << 20

// GetBuffer takes a buffer from the pool; its bytes are stale, so fill
// it from (*buf)[:0] and hand the result to PutBuffer.
func GetBuffer() *[]byte { return bufferPool.Get().(*[]byte) }

// PutBuffer returns buf to the pool holding b, the bytes last put in it.
func PutBuffer(buf *[]byte, b []byte) {
	if cap(b) <= maxPooledBuffer {
		*buf = b
		bufferPool.Put(buf)
	}
}

// WriteBody encodes a reply into a pooled buffer and only then commits
// to it: Content-Length, the status, one Write. A value that does not
// encode (a NaN in a float field — a bug caught by tests) is therefore
// a clean 500 with a JSON error body, not a truncated 200, and no reply
// is chunked. A Write failure means the client is gone, so it is logged
// at debug rather than surfaced.
func WriteBody(log *slog.Logger, w http.ResponseWriter, status int, encode func(dst []byte) ([]byte, error)) {
	buf := GetBuffer()
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
	PutBuffer(buf, body)
}

// WriteJSON sends v as the response body through encoding/json: the
// small replies off the query and write paths, whose bodies have an
// encoder of their own (codec.go).
func WriteJSON(log *slog.Logger, w http.ResponseWriter, status int, v any) {
	WriteBody(log, w, status, func(dst []byte) ([]byte, error) {
		buf := bytes.NewBuffer(dst)
		err := json.NewEncoder(buf).Encode(v)
		return buf.Bytes(), err
	})
}

// WriteUpdatesResponse answers POST /v1/updates with r.
func WriteUpdatesResponse(log *slog.Logger, w http.ResponseWriter, r *UpdatesResponse) {
	WriteBody(log, w, http.StatusOK, func(dst []byte) ([]byte, error) {
		return AppendUpdatesResponse(dst, r)
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
// event is non-empty, then data, one line of JSON, as the "data:" line
// and the blank line that ends the frame — and flushes it to the
// client. The pieces collect in the response's buffer, so the frame
// still leaves in one write.
func WriteSSE(w http.ResponseWriter, event string, data []byte) error {
	if event != "" {
		io.WriteString(w, "event: "+event+"\n") //nolint:errcheck // a failed write fails the next one too
	}
	io.WriteString(w, "data: ") //nolint:errcheck // as above
	w.Write(data)               //nolint:errcheck // as above
	if _, err := io.WriteString(w, "\n\n"); err != nil {
		return err
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

// AppendSSEError appends the "error" event that ends a stream: its data
// is {"error": msg}, the shape of every error reply.
func AppendSSEError(dst []byte, msg string) []byte {
	e := encoder{b: append(dst, "event: error\ndata: {\"error\":"...)}
	e.str(msg)
	e.raw("}\n\n")
	return e.b
}
