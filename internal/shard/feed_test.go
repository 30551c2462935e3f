package shard

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/serve"
)

// feedUnderTest is a one-shard router and a feed on it whose shard
// queries 1, 2 and 3 are members of router queries 1, 2 and 3.
func feedUnderTest(t *testing.T) (*Router, *feed, []*routerSub) {
	t.Helper()
	m, err := Uniform(geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10000, 10000)}, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(m, []*Client{{ID: "0", BaseURL: "http://127.0.0.1:1"}}, Config{Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	f := &feed{r: rt, queries: map[int64]*routerSub{}}
	f.cond.L = &f.mu
	subs := make([]*routerSub, 3)
	for i := range subs {
		subs[i] = newRouterSub(int64(i+1), "uncertain")
		subs[i].members = []subMember{{shard: 0, subID: int64(i + 1)}}
		subs[i].open = 1
		f.queries[int64(i+1)] = subs[i]
	}
	return rt, f, subs
}

// feedOracle is what the router must make of a feed, worked out from
// the bytes line by line: each query's relayed frames, how its stream
// ends, and the frames the router could not use.
type feedOracle struct {
	buf     [3][]byte
	end     [3]string // "close" or "error"
	dropped int
}

func oracle(in []byte) feedOracle {
	var o feedOracle
	done := [3]bool{}
	deliver := func(id int64, closing bool, data string) {
		if id < 1 || id > 3 || done[id-1] {
			return // addressed to no live query
		}
		q := id - 1
		if closing {
			o.end[q], done[q] = "close", true
			return
		}
		relayed, err := serve.AppendRelayedDelta(nil, []byte(data), "0")
		if err != nil {
			o.end[q], done[q] = "error", true
			o.dropped++
			return
		}
		o.buf[q] = append(append(append(o.buf[q], "data: "...), relayed...), "\n\n"...)
	}
	lines := strings.Split(string(in), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1] // the last newline ends a line, not a new one
	}
	var id int64
	closing, state := false, "id"
	broken := false
	for _, line := range lines {
		line = strings.TrimSuffix(line, "\r")
		ok := true
		switch state {
		case "id":
			if line == "" {
				continue
			}
			rest, isID := strings.CutPrefix(line, "id: ")
			n, err := strconv.ParseInt(rest, 10, 64)
			ok = isID && err == nil
			id, closing, state = n, false, "data"
		case "data":
			if !closing && line == "event: close" {
				closing = true
				continue
			}
			data, isData := strings.CutPrefix(line, "data: ")
			if ok = isData; ok {
				deliver(id, closing, data)
			}
			state = "blank"
		case "blank":
			ok, state = line == "", "id"
		}
		if !ok {
			broken = true
			break
		}
	}
	if broken {
		o.dropped++
	}
	for q := range done {
		if !done[q] {
			o.end[q] = "error" // the feed is lost with the query still open
		}
	}
	return o
}

// FuzzFeedReader runs the router's feed reader over arbitrary bytes and
// holds it to the oracle: no panic; each router query receives exactly
// the relayed frames addressed to its shard query, in order, up to its
// close event or its first frame the relay refuses — never a frame after
// that hole, never one addressed to another query — and every stream
// ends: with close after its close frame, otherwise with an error event,
// typed and counted (a refused frame or broken framing in
// ildq_router_stream_frames_dropped_total, the feed's end in
// ildq_router_feed_lost_total).
func FuzzFeedReader(f *testing.F) {
	for _, seed := range []string{
		"id: 1\ndata: {\"seq\":1,\"version\":1,\"entered\":[{\"id\":10,\"p\":0.5}],\"coalesced\":1,\"cost\":{}}\n\n",
		"id: 1\ndata: {\"version\":1}\n\nid: 2\ndata: {\"version\":4,\"left\":[3]}\n\nid: 1\nevent: close\ndata: {}\n\n",
		"id: 2\ndata: {\"version\":1}\n\nid: 2\ndata: {\"version\":2,\"entered\":[{\"id\":11,\n\nid: 2\ndata: {\"version\":3}\n\n",
		"id: 3\ndata: {\"version\":2,\"shard\":\"9\"}\n\nid: 1\ndata: {\"version\":1}\n\n",
		"id: x\ndata: {\"version\":1}\n\n",
		"data: {\"version\":1}\n\n",
		"id: 1\nid: 2\ndata: {}\n\n",
		"id: 1\nevent: error\ndata: {}\n\n",
		"\n\nid: 9\ndata: {\"version\":1}\n\nid: 1\r\ndata: {\"version\":1}\r\n\r\n",
		"id: 1\ndata: {\"version\":1}\nid: 2\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		rt, fd, subs := feedUnderTest(t)
		err := fd.read(bytes.NewReader(in))
		if err == nil {
			t.Fatal("the reader returned without an error")
		}
		if !errors.Is(err, errFeedEnded) && !errors.Is(err, ErrFeedFrame) {
			t.Fatalf("reader error %v is neither the end of the feed nor ErrFeedFrame", err)
		}
		rt.loseFeed(fd, err)

		want := oracle(in)
		for q, sub := range subs {
			sub.mu.Lock()
			buf, end := sub.buf, string(sub.end)
			sub.mu.Unlock()
			if !bytes.Equal(buf, want.buf[q]) {
				t.Fatalf("query %d received\n%q\nwant\n%q", q+1, buf, want.buf[q])
			}
			if got := map[bool]string{true: "close", false: "error"}[end == "event: close\ndata: {}\n\n"]; got != want.end[q] ||
				got == "error" && !strings.HasPrefix(end, "event: error\ndata: {\"error\":") {
				t.Fatalf("query %d stream ends with %q, want %s", q+1, end, want.end[q])
			}
		}
		if got := rt.m.framesDropped.With("0").Value(); got != int64(want.dropped) {
			t.Fatalf("frames dropped counted %d, want %d", got, want.dropped)
		}
		if got := rt.m.feedLost.With("0").Value(); got != 1 {
			t.Fatalf("feeds lost counted %d, want 1", got)
		}
	})
}

// TestFeedReaderLongLine: a line past serve.MaxBodyBytes is broken
// framing, not an allocation the shard can make the router grow without
// bound.
func TestFeedReaderLongLine(t *testing.T) {
	_, fd, _ := feedUnderTest(t)
	in := "id: 1\ndata: {\"version\":1,\"x\":\"" + strings.Repeat("a", serve.MaxBodyBytes) + "\"}\n\n"
	if err := fd.read(strings.NewReader(in)); !errors.Is(err, ErrFeedFrame) {
		t.Fatalf("reader error %v, want ErrFeedFrame", err)
	}
}

// TestRouterStreamOutlivesShardTimeout: the shard clients' HTTP timeout
// (ildq-router's -shard-timeout) bounds each scatter exchange, not a
// delta feed. A member stream used to share the scatter's client, whose
// Timeout covers reading the body, so every router stream ended with an
// error event once it had been open that long. With a 200 ms timeout
// the subscriber keeps receiving deltas for over a second, and its
// stream ends only with close, after Deregister.
func TestRouterStreamOutlivesShardTimeout(t *testing.T) {
	rt := fleet(t, 2)
	for _, c := range rt.shards {
		c.HTTP.Timeout = 200 * time.Millisecond
	}
	ctx := t.Context()

	reg, _ := rt.ask(t, "/v1/queries", straddlingRange)
	sub := openSubscriber(t, rt.front.URL, reg.ID)

	// Object 1 moves across the y=5000 border inside the query's guard:
	// every batch is a delta on both shards.
	move := func(i int) {
		t.Helper()
		y := 4800.0 + float64(i%2)*300
		if _, err := rt.ApplyUpdates(ctx, serve.UpdatesRequest{Updates: []serve.UpdateJSON{
			{Op: "upsert_object", ID: 1, Region: []float64{950, y, 1050, y + 100}}}}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	i := 0
	for ; time.Since(start) < 1200*time.Millisecond; i++ {
		move(i)
		time.Sleep(50 * time.Millisecond)
	}
	before := sub.received("0") + sub.received("1")
	move(i)
	for deadline := time.Now().Add(10 * time.Second); sub.received("0")+sub.received("1") == before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no delta arrived %v after the stream opened (stream end %q)", time.Since(start), sub.end)
		}
	}
	if err := rt.Deregister(ctx, reg.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sub.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the stream did not end after Deregister")
	}
	if sub.end != "close" {
		t.Fatalf("the stream ended with %q, want close", sub.end)
	}
	if lost := rt.m.feedLost.With("0").Value() + rt.m.feedLost.With("1").Value(); lost != 0 {
		t.Fatalf("%d feeds lost", lost)
	}
}

// TestRouterSubOverflow: a router query whose undelivered frames would
// pass maxBuffered — a subscriber that stopped reading, or a query
// nobody streams — has its stream ended with an error event and
// counted, keeping what it had buffered; the feed and the other
// queries on it are unaffected.
func TestRouterSubOverflow(t *testing.T) {
	rt, _, subs := feedUnderTest(t)
	entered := strings.Repeat(`{"id":1,"p":0.5},`, 4000)
	big := []byte(`{"seq":1,"version":1,"entered":[` + entered[:len(entered)-1] + `],"coalesced":1,"cost":{}}`)
	small := []byte(`{"seq":1,"version":1,"coalesced":1,"cost":{}}`)
	pushes := 0
	for subs[0].end == nil {
		if err := subs[0].push(big, "0", rt.m); err != nil {
			t.Fatal(err)
		}
		if err := subs[1].push(small, "0", rt.m); err != nil {
			t.Fatal(err)
		}
		if pushes++; pushes > 2*maxBuffered/len(big) {
			t.Fatalf("%d frames of %d bytes buffered without an overflow", pushes, len(big))
		}
	}
	if got := rt.m.overflow.Value(); got != 1 {
		t.Fatalf("overflows counted %d, want 1", got)
	}
	if end := string(subs[0].end); !strings.HasPrefix(end, "event: error\n") || !strings.Contains(end, "re-register") {
		t.Fatalf("overflowed stream ends with %q", end)
	}
	if n := len(subs[0].buf); n > maxBuffered || n < maxBuffered-len(big)-64 {
		t.Fatalf("overflowed query keeps %d bytes, want its frames up to the %d-byte bound", n, maxBuffered)
	}
	if subs[1].end != nil || bytes.Count(subs[1].buf, []byte("data: ")) != pushes {
		t.Fatalf("a query beside the overflow lost frames or its stream: end %q, %d of %d frames",
			subs[1].end, bytes.Count(subs[1].buf, []byte("data: ")), pushes)
	}
}

// TestRouterStreamOneSubscriber: a router query has one subscriber at a
// time — a second concurrent stream is a 409 (two streams used to split
// the deltas between them) — and once the first hangs up, the query can
// be streamed again and carries the deltas of later batches.
func TestRouterStreamOneSubscriber(t *testing.T) {
	rt := fleet(t, 2)
	reg, _ := rt.ask(t, "/v1/queries", straddlingRange)
	url := rt.front.URL + "/v1/queries/" + strconv.FormatInt(reg.ID, 10) + "/stream"

	ctx, hangUp := context.WithCancel(t.Context())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	first, err := http.DefaultClient.Do(req)
	if err != nil || first.StatusCode != http.StatusOK {
		t.Fatalf("first stream: %v %v", err, first)
	}
	second, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	second.Body.Close()
	if second.StatusCode != http.StatusConflict {
		t.Fatalf("second concurrent stream: HTTP %d, want 409", second.StatusCode)
	}
	hangUp()
	first.Body.Close()

	sub, _ := rt.Subscription(reg.ID)
	for deadline := time.Now().Add(10 * time.Second); !sub.claim(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the query stayed claimed after its subscriber hung up")
		}
	}
	sub.done(nil, true)
	again := openSubscriber(t, rt.front.URL, reg.ID)
	if _, err := rt.ApplyUpdates(t.Context(), serve.UpdatesRequest{Updates: []serve.UpdateJSON{
		{Op: "upsert_object", ID: 1, Region: []float64{950, 4950, 1050, 5050}}}}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); again.received("0")+again.received("1") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second subscriber received nothing")
		}
	}
}
