package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
)

// feedFrame is one frame read off a delta feed.
type feedFrame struct {
	id    int64
	event string
	delta DeltaJSON
}

// openFeed opens the feed token and reads its frames onto a channel
// until the returned cancel hangs up.
func openFeed(t *testing.T, url, token string) (<-chan feedFrame, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/feeds/"+token+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("feed: HTTP %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	frames := make(chan feedFrame, 64)
	go func() {
		defer close(frames)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var f feedFrame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				f.id, _ = strconv.ParseInt(line[len("id: "):], 10, 64)
			case strings.HasPrefix(line, "event: "):
				f.event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				if f.event == "" {
					json.Unmarshal([]byte(line[len("data: "):]), &f.delta) //nolint:errcheck // a bad frame fails the test's comparisons
				}
				frames <- f
				f = feedFrame{}
			}
		}
	}()
	return frames, cancel
}

func nextFrame(t *testing.T, frames <-chan feedFrame) feedFrame {
	t.Helper()
	select {
	case f, ok := <-frames:
		if !ok {
			t.Fatal("feed ended")
		}
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("no feed frame within 10s")
	}
	return feedFrame{}
}

// feedWrites reads the frames-per-write histogram's count and sum.
func feedWrites(t *testing.T, url string) (count, sum int) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(readAll(t, resp), "\n") {
		if v, ok := strings.CutPrefix(line, "ildq_feed_write_frames_count "); ok {
			count, _ = strconv.Atoi(v)
		}
		if v, ok := strings.CutPrefix(line, "ildq_feed_write_frames_sum "); ok {
			sum, _ = strconv.Atoi(v)
		}
	}
	return count, sum
}

// TestServeFeed drives a delta feed: registrations onto it deliver their
// snapshots and deltas on the one stream, tagged with their ids and in
// id order, a pass touching two queries leaves in one write carrying
// both frames, an unregistered query sends its close frame, and hanging
// up the feed unregisters what is still on it. The refusals are 409s: a
// second stream under an open token, a registration onto a feed that is
// not open, and a query's own stream when it is on a feed.
func TestServeFeed(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_object", "id": 1, "region": [480, 480, 520, 520]},
		{"op": "upsert_object", "id": 2, "region": [2480, 480, 2520, 520]}]}`)

	frames, hangUp := openFeed(t, ts.URL, "r1.1")
	defer hangUp()
	if status, _ := getJSON(t, ts.URL+"/v1/feeds/r1.1/stream"); status != http.StatusConflict {
		t.Errorf("second stream on an open feed: HTTP %d, want 409", status)
	}
	if status, body := postRaw(t, ts.URL+"/v1/queries?feed=nope", `{"issuer": {"region": [450, 450, 550, 550]}, "w": 100, "h": 100}`); status != http.StatusConflict {
		t.Errorf("registration onto a feed that is not open: HTTP %d %v, want 409", status, body)
	}

	var ids [2]int64
	for i, x := range []int{500, 2500} {
		reg := postJSON(t, ts.URL+"/v1/queries?feed=r1.1", fmt.Sprintf(`{"issuer": {"region": [%d, 450, %d, 550]}, "w": 100, "h": 100}`, x-50, x+50))
		ids[i] = int64(reg["id"].(float64))
		snap := nextFrame(t, frames)
		if snap.id != ids[i] || len(snap.delta.Entered) != 1 || snap.delta.Entered[0].ID != int64(i+1) {
			t.Fatalf("query %d's snapshot frame: %+v", ids[i], snap)
		}
	}
	if status, _ := getJSON(t, fmt.Sprintf("%s/v1/queries/%d/stream", ts.URL, ids[0])); status != http.StatusConflict {
		t.Errorf("own stream of a query on a feed: HTTP %d, want 409", status)
	}

	// The feed observes a write after flushing it, so the second
	// snapshot frame can reach the client before the histogram counts
	// it: wait until both snapshot frames are counted.
	count, sum := feedWrites(t, ts.URL)
	for deadline := time.Now().Add(10 * time.Second); sum != 2; count, sum = feedWrites(t, ts.URL) {
		if time.Now().After(deadline) {
			t.Fatalf("frames-per-write histogram counts %d frames in %d writes, want the 2 snapshot frames", sum, count)
		}
		time.Sleep(time.Millisecond)
	}
	postJSON(t, ts.URL+"/v1/updates", `{"updates": [
		{"op": "upsert_object", "id": 1, "region": [3000, 3000, 3040, 3040]},
		{"op": "upsert_object", "id": 2, "region": [4000, 3000, 4040, 3040]}]}`)
	for i, id := range ids {
		f := nextFrame(t, frames)
		if f.id != id || f.event != "" || len(f.delta.Left) != 1 || f.delta.Left[0] != int64(i+1) || f.delta.Seq != 2 {
			t.Fatalf("frame %d of the pass: %+v, want query %d leaving object %d", i, f, id, i+1)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c, s := feedWrites(t, ts.URL)
		if c == count+1 && s == sum+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frames-per-write histogram went from count %d sum %d to %d %d, want one write of two frames", count, sum, c, s)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/queries/%d", ts.URL, ids[0]), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if f := nextFrame(t, frames); f.id != ids[0] || f.event != "close" {
		t.Fatalf("after unregistering query %d: %+v, want its close frame", ids[0], f)
	}

	hangUp()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if status, _ := getJSON(t, fmt.Sprintf("%s/v1/queries/%d", ts.URL, ids[1])); status == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query %d outlived its feed", ids[1])
		}
	}
}

// TestServeEndFeeds: a server shutting down ends its feeds' streams —
// a feed never ends on its own, so http.Server.Shutdown would wait out
// its deadline — and unregisters what was on them.
func TestServeEndFeeds(t *testing.T) {
	eng, err := core.NewEngine(nil, nil, core.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(eng, monitor.Config{})
	srv := NewServer(mon, core.EvalOptions{}, Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	frames, hangUp := openFeed(t, ts.URL, "r1.1")
	defer hangUp()
	postJSON(t, ts.URL+"/v1/queries?feed=r1.1", `{"issuer": {"region": [450, 450, 550, 550]}, "w": 100, "h": 100}`)
	nextFrame(t, frames)
	srv.EndFeeds()
	select {
	case _, open := <-frames:
		if open {
			t.Fatal("a frame after EndFeeds")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the feed's stream outlived EndFeeds")
	}
	for deadline := time.Now().Add(10 * time.Second); mon.Stats().Registered != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the query outlived its feed")
		}
	}
}
