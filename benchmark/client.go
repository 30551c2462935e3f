package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// client is one load-generator client: one keep-alive connection to
// the router, one request in flight.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one JSON request and decodes the 2xx reply into out.
func (c *client) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// evaluate runs one query; a partial (fail-open) answer is a failure.
func (c *client) evaluate(rj serve.RequestJSON) (serve.EvaluateResponse, error) {
	var out serve.EvaluateResponse
	if err := c.post("/v1/evaluate", rj, &out); err != nil {
		return out, err
	}
	if out.Partial {
		return out, fmt.Errorf("partial answer, missing shards %v", out.MissingShards)
	}
	return out, nil
}

// update ingests one batch; a partial or partly rejected batch is a
// failure.
func (c *client) update(batch []serve.UpdateJSON) (serve.UpdatesResponse, error) {
	var out serve.UpdatesResponse
	if err := c.post("/v1/updates", serve.UpdatesRequest{Updates: batch}, &out); err != nil {
		return out, err
	}
	if out.Partial || len(out.Errors) > 0 {
		return out, fmt.Errorf("batch not fully applied: partial=%v missing=%v errors=%v", out.Partial, out.MissingShards, out.Errors)
	}
	return out, nil
}

// deltaEvent is one frame read off a standing query's delta stream.
type deltaEvent struct {
	shard   string
	version uint64
	recv    time.Time
}

// deltaReaders holds the passive receive-only connections that drain
// the standing queries' SSE streams. An unread stream would push the
// monitor onto its slow-consumer coalescing path, so every registered
// query gets a reader.
type deltaReaders struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	events []deltaEvent
}

// openDeltaStreams opens the delta streams of the registered router
// queries ids and starts one reader on each.
func openDeltaStreams(base string, ids []int64) (*deltaReaders, error) {
	ctx, cancel := context.WithCancel(context.Background())
	d := &deltaReaders{cancel: cancel}
	hc := &http.Client{Transport: &http.Transport{}}
	for _, id := range ids {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/queries/%d/stream", base, id), nil)
		if err != nil {
			d.close()
			return nil, err
		}
		resp, err := hc.Do(req)
		if err == nil && resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			err = fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("opening delta stream %d: %w", id, err)
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			defer resp.Body.Close()
			d.read(resp.Body)
		}()
	}
	return d, nil
}

// read parses "data: {json}" frames until the stream ends. Only the
// (shard, version) tag of each frame is kept.
func (d *deltaReaders) read(body io.Reader) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		payload, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		recv := time.Now()
		var f struct {
			Shard   string `json:"shard"`
			Version uint64 `json:"version"`
		}
		if json.Unmarshal([]byte(payload), &f) != nil || f.Shard == "" {
			continue // the close event's empty object
		}
		d.mu.Lock()
		d.events = append(d.events, deltaEvent{shard: f.Shard, version: f.Version, recv: recv})
		d.mu.Unlock()
	}
}

// close ends every stream and returns the events read.
func (d *deltaReaders) close() []deltaEvent {
	d.cancel()
	d.wg.Wait()
	return d.events
}

// sentBatch is one acknowledged move batch: when it was sent and the
// engine version it produced on each shard it reached.
type sentBatch struct {
	sent     time.Time
	versions map[string]uint64
}

// deltaLatenciesMS matches every delta event to the batch that
// produced its (shard, version) and returns receive time minus send
// time, in ms. Events no recorded batch explains — registration
// snapshots, warm-up batches — are dropped.
func deltaLatenciesMS(batches []sentBatch, events []deltaEvent) []float64 {
	type key struct {
		shard   string
		version uint64
	}
	sent := make(map[key]time.Time, 2*len(batches))
	for _, b := range batches {
		for shard, v := range b.versions {
			sent[key{shard, v}] = b.sent
		}
	}
	var out []float64
	for _, e := range events {
		if t, ok := sent[key{e.shard, e.version}]; ok {
			out = append(out, ms(e.recv.Sub(t)))
		}
	}
	return out
}
