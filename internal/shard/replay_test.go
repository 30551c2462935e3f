package shard

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/serve"
)

var updateReplay = flag.Bool("update-replay", false, "rewrite testdata/stream_replay.golden from this run")

// subscriberStream is one client's reading of a router delta stream:
// every data frame with a shard tag, as raw bytes and decoded, plus the
// event that ended the stream, and the stream's whole text.
type subscriberStream struct {
	mu     sync.Mutex
	raw    map[string][]string // per shard tag, the frames in arrival order
	frames map[string][]serve.DeltaJSON
	end    string // "close", "error", or "" while open or cut
	text   strings.Builder
	err    error // the read's failure, set before done closes
	done   chan struct{}
}

func openSubscriber(t *testing.T, url string, id int64) *subscriberStream {
	t.Helper()
	req, err := http.NewRequestWithContext(t.Context(), http.MethodGet, fmt.Sprintf("%s/v1/queries/%d/stream", url, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %d: HTTP %d", id, resp.StatusCode)
	}
	s := &subscriberStream{raw: map[string][]string{}, frames: map[string][]serve.DeltaJSON{}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		event := ""
		defer func() { s.err = sc.Err() }()
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			s.text.WriteString(line + "\n")
			s.mu.Unlock()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				s.mu.Lock()
				if event != "" {
					s.end = event
				} else {
					var d serve.DeltaJSON
					if err := json.Unmarshal([]byte(line[len("data: "):]), &d); err != nil || d.Shard == "" {
						s.end = "bad frame: " + line
					} else {
						s.raw[d.Shard] = append(s.raw[d.Shard], line[len("data: "):])
						s.frames[d.Shard] = append(s.frames[d.Shard], d)
					}
				}
				s.mu.Unlock()
				event = ""
			}
		}
	}()
	return s
}

// wait returns the stream's text once it has ended, which the router
// must bring about itself.
func (s *subscriberStream) wait(t *testing.T) string {
	t.Helper()
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the subscriber stream did not end")
	}
	if s.err != nil {
		t.Fatalf("subscriber stream did not end cleanly: %v", s.err)
	}
	return s.text.String()
}

// received is the number of frames read from shard.
func (s *subscriberStream) received(shard string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames[shard])
}

// replay folds the frames read so far into one qualifying set: each
// shard's sub-stream replayed by the delta rule, the shards' sets
// united — a replicated object must carry the same bits on every shard
// that reports it. It also returns the highest version each shard's
// frames carried.
func (s *subscriberStream) replay(t *testing.T) (map[int64]float64, map[string]uint64) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	folded := map[int64]float64{}
	versions := map[string]uint64{}
	for shard, frames := range s.frames {
		set := map[int64]float64{}
		for _, d := range frames {
			if d.Error != "" {
				t.Fatalf("shard %s frame carries an error: %s", shard, d.Error)
			}
			if d.Version < versions[shard] {
				t.Fatalf("shard %s versions went back: %d after %d", shard, d.Version, versions[shard])
			}
			versions[shard] = d.Version
			for _, id := range d.Left {
				delete(set, id)
			}
			for _, m := range append(slices.Clone(d.Entered), d.Updated...) {
				set[m.ID] = m.P
			}
		}
		for id, p := range set {
			if q, ok := folded[id]; ok && math.Float64bits(p) != math.Float64bits(q) {
				t.Fatalf("object %d: shard %s replays p=%v, another replica %v", id, shard, p, q)
			}
			folded[id] = p
		}
	}
	return folded, versions
}

// durationMS blanks the one wall-clock field of a delta frame.
var durationMS = regexp.MustCompile(`"duration_ms":[^,}]*`)

// TestRouterStreamReplay is the standing-query half of the fleet's
// bit-exactness: router streams, replayed per shard tag and folded by
// owner, equal after every batch the single engine's evaluation of the
// same query, Float64bits for Float64bits. Ten standing queries — some
// guards straddling the y=5000 shard border — ride random batches of
// straddling objects, border crossings, Gaussian objects and deletes;
// one subscriber connects only after four batches and must still see
// the registration snapshot first, and one query is deregistered
// mid-stream and must end with a close event.
// Every frame's bytes, its wall-clock duration blanked, are held to
// testdata/stream_replay.golden, recorded from the member-stream relay
// the feed replaced (-update-replay rewrites it).
func TestRouterStreamReplay(t *testing.T) {
	rt := fleet(t, 2)
	front, mons := rt.front, []*monitor.Monitor{rt.servers[0].mon, rt.servers[1].mon}
	refSrv, ref := reference(t)
	ctx := t.Context()
	rng := rand.New(rand.NewSource(35))

	region := func(straddle bool) []float64 {
		cx, cy := rng.Float64()*10000, rng.Float64()*10000
		if straddle {
			cx, cy = 500+rng.Float64()*9000, 5000+(rng.Float64()-0.5)*200
		}
		hw, hh := 20+rng.Float64()*300, 20+rng.Float64()*300
		return []float64{math.Max(0, cx-hw), math.Max(0, cy-hh), math.Min(10000, cx+hw), math.Min(10000, cy+hh)}
	}
	batch := func() serve.UpdatesRequest {
		var ups []serve.UpdateJSON
		for range 30 {
			id := int64(rng.Intn(80))
			switch k := rng.Intn(8); k {
			case 0, 1: // an object, often across the border
				ups = append(ups, serve.UpdateJSON{Op: "upsert_object", ID: id, Region: region(rng.Intn(2) == 0)})
			case 2, 3: // a Gaussian object
				ups = append(ups, serve.UpdateJSON{Op: "upsert_object", ID: id, Region: region(true), PDF: "gaussian"})
			case 4, 5: // a point, possibly crossing the border
				ups = append(ups, serve.UpdateJSON{Op: "upsert_point", ID: id, X: rng.Float64() * 10000, Y: 4000 + rng.Float64()*2000})
			case 6:
				ups = append(ups, serve.UpdateJSON{Op: "delete_object", ID: id})
			case 7:
				ups = append(ups, serve.UpdateJSON{Op: "delete_point", ID: id})
			}
		}
		return serve.UpdatesRequest{Updates: ups}
	}
	apply := func(b serve.UpdatesRequest) map[string]uint64 {
		t.Helper()
		resp, err := rt.ApplyUpdates(ctx, b)
		if err != nil || resp.Partial {
			t.Fatalf("router updates: %v (partial %v)", err, resp.Partial)
		}
		if _, err := ref.Updates(ctx, b); err != nil {
			t.Fatalf("reference updates: %v", err)
		}
		return resp.Versions
	}
	apply(batch())

	type standing struct {
		id  int64
		rj  serve.RequestJSON
		sub *subscriberStream
	}
	var queries []*standing
	for i := range 10 {
		c := []float64{500 + rng.Float64()*9000, 500 + rng.Float64()*9000}
		if i%2 == 0 {
			c[1] = 5000 + (rng.Float64()-0.5)*600 // the guard straddles the border
		}
		rj := serve.RequestJSON{Kind: "uncertain", Issuer: serve.IssuerJSON{Region: []float64{c[0] - 200, c[1] - 200, c[0] + 200, c[1] + 200}},
			W: 800 + rng.Float64()*800, H: 800 + rng.Float64()*800, Seed: int64(100 + i)}
		switch i % 3 {
		case 1:
			rj.Threshold = 0.2
		case 2:
			rj.Kind = "points"
			rj.Threshold = 0.1
		}
		status, body := postJSON(t, front.URL+"/v1/queries", rj)
		if status != http.StatusCreated {
			t.Fatalf("register %d: HTTP %d %s", i, status, body)
		}
		var reg serve.RegisterResponse
		if err := json.Unmarshal(body, &reg); err != nil {
			t.Fatal(err)
		}
		queries = append(queries, &standing{id: reg.ID, rj: rj})
	}
	const late, gone = 3, 4 // the late subscriber; the query deregistered mid-stream
	for i, q := range queries {
		if i != late {
			q.sub = openSubscriber(t, front.URL, q.id)
		}
	}

	// caughtUp waits until q's stream holds, from every member shard,
	// as many frames as that shard's subscription has queued deltas.
	caughtUp := func(q *standing) {
		t.Helper()
		sub, ok := rt.Subscription(q.id)
		if !ok {
			t.Fatalf("router query %d vanished", q.id)
		}
		deadline := time.Now().Add(10 * time.Second)
		for _, mem := range sub.members {
			shardSub, ok := mons[mem.shard].Subscription(mem.subID)
			if !ok {
				t.Fatalf("shard %d lost query %d", mem.shard, mem.subID)
			}
			st := shardSub.Stats()
			if st.Coalesced != 0 {
				t.Fatalf("shard %d coalesced query %d's deltas", mem.shard, mem.subID)
			}
			for q.sub.received(fmt.Sprint(mem.shard)) < int(st.Deltas) {
				if time.Now().After(deadline) {
					t.Fatalf("query %d: %d of shard %d's %d deltas arrived", q.id, q.sub.received(fmt.Sprint(mem.shard)), mem.shard, st.Deltas)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	check := func(round int, q *standing, versions map[string]uint64) {
		t.Helper()
		caughtUp(q)
		got, seen := q.sub.replay(t)
		for shard, v := range seen {
			if w, ok := versions[shard]; ok && v > w {
				t.Fatalf("round %d query %d: shard %s frame at version %d, past the batch's %d", round, q.id, shard, v, w)
			}
		}
		req, err := q.rj.ToRequest()
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSrv.Engine().Evaluate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Matches) {
			t.Fatalf("round %d query %d: replay holds %d objects, single engine %d", round, q.id, len(got), len(want.Matches))
		}
		for _, w := range want.Matches {
			if p, ok := got[int64(w.ID)]; !ok || math.Float64bits(p) != math.Float64bits(w.P) {
				t.Fatalf("round %d query %d: object %d replays %v (present %v), single engine %v", round, q.id, w.ID, p, ok, w.P)
			}
		}
	}

	for round := range 12 {
		versions := apply(batch())
		if round == 4 {
			queries[late].sub = openSubscriber(t, front.URL, queries[late].id)
		}
		if round == 8 {
			caughtUp(queries[gone])
			if err := rt.Deregister(ctx, queries[gone].id); err != nil {
				t.Fatal(err)
			}
			select {
			case <-queries[gone].sub.done:
			case <-time.After(10 * time.Second):
				t.Fatal("deregistered query's stream did not end")
			}
			if end := queries[gone].sub.end; end != "close" {
				t.Fatalf("deregistered query's stream ended with %q, want close", end)
			}
		}
		for i, q := range queries {
			if q.sub == nil || (i == gone && round >= 8) {
				continue
			}
			check(round, q, versions)
		}
	}

	// The frames' bytes, per query and shard, less the wall clock.
	var golden strings.Builder
	for i, q := range queries {
		q.sub.mu.Lock()
		for _, shard := range []string{"0", "1"} {
			for _, f := range q.sub.raw[shard] {
				fmt.Fprintf(&golden, "%d %s %s\n", i, shard, durationMS.ReplaceAllString(f, `"duration_ms":0`))
			}
		}
		q.sub.mu.Unlock()
	}
	path := filepath.Join("testdata", "stream_replay.golden")
	if *updateReplay {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := golden.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("frame %d differs from the relay's:\n got %s\nwant %s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("%d frame lines, the relay forwarded %d", len(gl), len(wl))
	}
}
