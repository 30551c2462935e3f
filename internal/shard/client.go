package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/wire"
)

// RetryPolicy bounds the router's per-request retries against one
// shard. A request is retried on transport errors and 5xx responses;
// 4xx responses are the caller's bug and surface immediately, and so
// does a reply that is too large or not in the expected encoding —
// the same request would draw the same reply.
type RetryPolicy struct {
	// Attempts is the total number of tries (first attempt included).
	// Zero means DefaultRetry.Attempts.
	Attempts int
	// Backoff is the sleep before the second attempt; it doubles per
	// retry. Zero means DefaultRetry.Backoff.
	Backoff time.Duration
	// MaxBackoff caps the doubling (0 = DefaultRetry.MaxBackoff).
	MaxBackoff time.Duration
}

// DefaultRetry is the policy used when a Client's RetryPolicy has zero
// fields: three tries with 25ms → 50ms backoff.
var DefaultRetry = RetryPolicy{Attempts: 3, Backoff: 25 * time.Millisecond, MaxBackoff: 400 * time.Millisecond}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = DefaultRetry.Attempts
	}
	if p.Backoff <= 0 {
		p.Backoff = DefaultRetry.Backoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultRetry.MaxBackoff
	}
	return p
}

// Client is one shard endpoint: an ildq-serve process speaking the
// standard wire format.
type Client struct {
	// ID is the shard's index in the tile map, as a string (matches the
	// shard's -shard-id flag and the router's metric labels).
	ID string
	// BaseURL is the shard's root, e.g. "http://127.0.0.1:9001".
	BaseURL string
	// HTTP is the transport (http.DefaultClient when nil).
	HTTP *http.Client
	// Retry bounds retries (DefaultRetry for zero fields).
	Retry RetryPolicy

	// OnRetry, when set, observes each retry (metrics hook).
	OnRetry func()
	// OnReply, when set, observes the size of each 2xx reply body read
	// whole for one of the router's fan-out ops (metrics hook).
	OnReply func(op string, bytes int)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// statusError is a non-2xx shard response; 5xx values are retryable.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.code, e.body)
}

// hasStatus reports whether err is the shard's answer with HTTP code.
func hasStatus(err error, code int) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == code
}

// ErrReplyTooLarge reports a shard reply that announced more than the
// size cap of its endpoint, or ran past it; the router reads none of
// the former and stops reading the latter at the cap.
var ErrReplyTooLarge = errors.New("reply exceeds the size cap")

// ErrReplyFormat reports a 2xx shard reply that is not in the encoding
// this router speaks for the endpoint: the wrong Content-Type, or a
// body its decoder refuses (the error then also wraps the decoder's
// own: wire.ErrFrame, serve.ErrBody, encoding/json's).
var ErrReplyFormat = errors.New("reply is not in the expected encoding (router and shard binaries differ)")

// reply says how one endpoint's 2xx body is read: through a hard cap,
// whole, into a pooled buffer (serve.GetBuffer), and only then decoded —
// a shard is trusted neither to stop sending nor to send what it
// announced. A decode failure is an ErrReplyFormat.
type reply struct {
	op     string // OnReply label; "" is not observed
	media  string // required Content-Type
	limit  int64
	decode func(body []byte) error // nil discards the body
	// buf, when set, is the buffer the body is read into and left in, for
	// a decoded value that aliases it; the caller hands it back to the
	// pool. Otherwise the body's buffer goes back once it is decoded.
	buf *[]byte
}

func jsonReply(op string, decode func(body []byte) error) reply {
	return reply{op: op, media: "application/json", limit: serve.MaxBodyBytes, decode: decode}
}

// unmarshalInto decodes the small JSON replies through encoding/json.
func unmarshalInto(out any) func([]byte) error {
	return func(body []byte) error { return json.Unmarshal(body, out) }
}

// send runs one request with an encoded body (nil for none) under the
// client's retry policy.
func (c *Client) send(ctx context.Context, method, path string, body []byte, rp reply) error {
	pol := c.Retry.withDefaults()
	backoff := pol.Backoff
	var lastErr error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			if c.OnRetry != nil {
				c.OnRetry()
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("shard %s: %s: %w (last: %v)", c.ID, path, ctx.Err(), lastErr)
			case <-time.After(backoff):
			}
			backoff = min(backoff*2, pol.MaxBackoff)
		}
		err := c.doOnce(ctx, method, path, body, rp)
		if err == nil {
			return nil
		}
		lastErr = err
		var se *statusError
		if errors.As(err, &se) && se.code < 500 || errors.Is(err, ErrReplyTooLarge) || errors.Is(err, ErrReplyFormat) {
			// Neither a client error nor a deterministic reply will heal
			// with retries.
			break
		}
		if ctx.Err() != nil {
			break
		}
	}
	return fmt.Errorf("shard %s: %s: %w", c.ID, path, lastErr)
}

func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, rp reply) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(msg))}
	}
	if rp.decode != nil {
		got, _, _ := strings.Cut(resp.Header.Get("Content-Type"), ";")
		if strings.TrimSpace(got) != rp.media {
			return fmt.Errorf("%w: Content-Type %q, want %q", ErrReplyFormat, got, rp.media)
		}
	}
	buf := rp.buf
	if buf == nil {
		buf = serve.GetBuffer()
		defer func() { serve.PutBuffer(buf, *buf) }()
	}
	raw, err := readCapped(resp, rp.limit, (*buf)[:0])
	*buf = raw
	if err != nil {
		return err
	}
	if c.OnReply != nil && rp.op != "" {
		c.OnReply(rp.op, len(raw))
	}
	if rp.decode == nil {
		return nil
	}
	if err := rp.decode(raw); err != nil {
		return fmt.Errorf("%w: %w", ErrReplyFormat, err)
	}
	return nil
}

// readCapped reads a reply body whole into dst, grown first to the
// announced Content-Length when there is one. A reply that announces
// more than limit is refused unread, and one that announces nothing is
// read up to limit, so the cap bounds what is allocated whatever the
// shard says.
func readCapped(resp *http.Response, limit int64, dst []byte) ([]byte, error) {
	if resp.ContentLength > limit {
		return dst, fmt.Errorf("%w of %d bytes", ErrReplyTooLarge, limit)
	}
	if n := int(resp.ContentLength); n >= 0 {
		// net/http reports the body's end together with its last byte,
		// which is what keeps the connection for the next request.
		raw := slices.Grow(dst, n)[:n]
		_, err := io.ReadFull(resp.Body, raw)
		return raw, err
	}
	// Reading to EOF is also what keeps the connection: a chunked
	// reply's terminal chunk left unread makes net/http drop the
	// keep-alive connection on Close.
	buf := bytes.NewBuffer(dst)
	_, err := buf.ReadFrom(io.LimitReader(resp.Body, limit+1))
	if err == nil && int64(buf.Len()) > limit {
		err = fmt.Errorf("%w of %d bytes", ErrReplyTooLarge, limit)
	}
	return buf.Bytes(), err
}

// post sends req, encoded by appendBody, to path with the client's
// retry policy.
func post[T any](c *Client, ctx context.Context, path string, req *T, appendBody func([]byte, *T) ([]byte, error), rp reply) error {
	body, err := appendBody(nil, req)
	if err != nil {
		return fmt.Errorf("shard %s: encoding %s: %w", c.ID, path, err)
	}
	return c.send(ctx, http.MethodPost, path, body, rp)
}

// evaluateReply runs a one-shot request on the shard and reads the reply
// into buf, which the reply aliases (serve.DecodeEvaluateReply): buf
// goes back to the pool only once the reply is no longer read.
func (c *Client) evaluateReply(ctx context.Context, req serve.RequestJSON, buf *[]byte) (serve.EvaluateReply, error) {
	var out serve.EvaluateReply
	rp := jsonReply("evaluate", func(body []byte) (err error) {
		out, err = serve.DecodeEvaluateReply(body)
		return err
	})
	rp.buf = buf
	err := post(c, ctx, "/v1/evaluate", &req, serve.AppendRequest, rp)
	return out, err
}

// maxNNFrame is the largest candidate frame a shard can legitimately
// send: serve caps the list at MaxNNCandidateLimit whatever was asked.
var maxNNFrame = int64(wire.MaxNNCandidateSetSize(serve.MaxNNCandidateLimit))

// NNCandidates collects the shard's NN candidate set (the shard half
// of the fleet tau-merge protocol). The reply is the one binary frame
// on the hop, decoded straight into the refinement kernel's input —
// into buf's array when it is large enough (see
// wire.DecodeNNCandidateSet).
func (c *Client) NNCandidates(ctx context.Context, req serve.NNCandidatesRequest, buf []core.NNCandidate) (core.NNCandidateSet, error) {
	var out core.NNCandidateSet
	err := post(c, ctx, "/v1/nn/candidates", &req, serve.AppendNNCandidatesRequest, reply{
		op: "nn", media: wire.NNFrameType, limit: maxNNFrame,
		decode: func(body []byte) (err error) {
			out, err = wire.DecodeNNCandidateSet(body, buf)
			return err
		},
	})
	return out, err
}

// Updates applies one update batch on the shard. The batch and the
// reply go through the append encoder and the scanning decoder.
func (c *Client) Updates(ctx context.Context, req serve.UpdatesRequest) (serve.UpdatesResponse, error) {
	var out serve.UpdatesResponse
	// ~110 bytes is a move of an object with a 4-float region.
	appendBody := func(dst []byte, req *serve.UpdatesRequest) ([]byte, error) {
		return serve.AppendUpdatesRequest(slices.Grow(dst, 16+128*len(req.Updates)), req)
	}
	err := post(c, ctx, "/v1/updates", &req, appendBody, jsonReply("updates", func(b []byte) (err error) {
		out, err = serve.DecodeUpdatesResponse(b)
		return err
	}))
	return out, err
}

// Register registers a standing query on the shard, its deltas
// delivered on the open feed named feed (OpenFeed), and reads the reply
// into buf, which the reply aliases (serve.DecodeRegisterResponse): buf
// goes back to the pool only once the reply is no longer read.
func (c *Client) Register(ctx context.Context, req serve.RequestJSON, feed string, buf *[]byte) (serve.RegisterReply, error) {
	var out serve.RegisterReply
	rp := jsonReply("register", func(body []byte) (err error) {
		out, err = serve.DecodeRegisterResponse(body)
		return err
	})
	rp.buf = buf
	err := post(c, ctx, "/v1/queries?feed="+url.QueryEscape(feed), &req, serve.AppendRequest, rp)
	return out, err
}

// Deregister removes a standing query from the shard. A 404 counts as
// removed: it is what a retry draws once the shard committed an attempt
// whose reply was lost.
func (c *Client) Deregister(ctx context.Context, id int64) error {
	err := c.send(ctx, http.MethodDelete, fmt.Sprintf("/v1/queries/%d", id), nil, reply{limit: serve.MaxBodyBytes})
	if hasStatus(err, http.StatusNotFound) {
		return nil
	}
	return err
}

// Healthz fetches the shard's health report.
func (c *Client) Healthz(ctx context.Context) (serve.HealthzResponse, error) {
	var out serve.HealthzResponse
	err := c.send(ctx, http.MethodGet, "/healthz", nil, jsonReply("", unmarshalInto(&out)))
	return out, err
}

// OpenFeed opens a delta feed on the shard under token: the one stream
// that carries the deltas of every standing query registered onto it.
// The stream lives until ctx ends or the body is closed — HTTP.Timeout,
// which covers a whole exchange body included, bounds only the wait for
// it to open — and is not retried: the router opens a fresh feed for
// later registrations instead.
func (c *Client) OpenFeed(ctx context.Context, token string) (io.ReadCloser, error) {
	hc := *c.httpClient()
	ctx, cancel := context.WithCancel(ctx)
	if hc.Timeout > 0 {
		t := time.AfterFunc(hc.Timeout, cancel)
		defer t.Stop()
		hc.Timeout = 0
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/feeds/"+url.PathEscape(token)+"/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("shard %s: feed: %w", c.ID, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("shard %s: feed: HTTP %d", c.ID, resp.StatusCode)
	}
	return cancelBody{resp.Body, cancel}, nil
}

// cancelBody releases a stream's context when the stream is closed.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}
