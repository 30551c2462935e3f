package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/serve"
)

// RetryPolicy bounds the router's per-request retries against one
// shard. A request is retried on transport errors and 5xx responses;
// 4xx responses are the caller's bug and surface immediately.
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

// do runs one JSON request with the client's retry policy. out may be
// nil to discard the response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("shard %s: encoding %s: %w", c.ID, path, err)
		}
	}
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
		err := c.doOnce(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		var se *statusError
		if errors.As(err, &se) && se.code < 500 {
			// Client errors will not heal with retries.
			break
		}
		if ctx.Err() != nil {
			break
		}
	}
	return fmt.Errorf("shard %s: %s: %w", c.ID, path, lastErr)
}

func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) error {
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return err
		}
	}
	// Read to EOF even after a full decode: the decoder stops at the end
	// of the JSON value, and a chunked reply's terminal chunk left
	// unread makes net/http drop the keep-alive connection on Close.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// Evaluate runs a one-shot request on the shard.
func (c *Client) Evaluate(ctx context.Context, req serve.RequestJSON) (serve.EvaluateResponse, error) {
	var out serve.EvaluateResponse
	err := c.do(ctx, http.MethodPost, "/v1/evaluate", req, &out)
	return out, err
}

// NNCandidates collects the shard's NN candidate set (the shard half
// of the fleet tau-merge protocol).
func (c *Client) NNCandidates(ctx context.Context, req serve.NNCandidatesRequest) (serve.NNCandidatesResponse, error) {
	var out serve.NNCandidatesResponse
	err := c.do(ctx, http.MethodPost, "/v1/nn/candidates", req, &out)
	return out, err
}

// Updates applies one update batch on the shard.
func (c *Client) Updates(ctx context.Context, req serve.UpdatesRequest) (serve.UpdatesResponse, error) {
	var out serve.UpdatesResponse
	err := c.do(ctx, http.MethodPost, "/v1/updates", req, &out)
	return out, err
}

// Register registers a standing query on the shard.
func (c *Client) Register(ctx context.Context, req serve.RequestJSON) (serve.RegisterResponse, error) {
	var out serve.RegisterResponse
	err := c.do(ctx, http.MethodPost, "/v1/queries", req, &out)
	return out, err
}

// Deregister removes a standing query from the shard.
func (c *Client) Deregister(ctx context.Context, id int64) error {
	return c.do(ctx, http.MethodDelete, fmt.Sprintf("/v1/queries/%d", id), nil, nil)
}

// Healthz fetches the shard's health report.
func (c *Client) Healthz(ctx context.Context) (serve.HealthzResponse, error) {
	var out serve.HealthzResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// OpenStream opens the SSE delta stream of a standing query. The
// returned body must be closed by the caller; stream reads are not
// retried (a consumer resubscribes from a fresh snapshot instead).
func (c *Client) OpenStream(ctx context.Context, id int64) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/queries/%d/stream", c.BaseURL, id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard %s: stream %d: %w", c.ID, id, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("shard %s: stream %d: HTTP %d", c.ID, id, resp.StatusCode)
	}
	return resp.Body, nil
}
