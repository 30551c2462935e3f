// Cluster: a multi-process sharded deployment, verified bit-exact.
//
// The harness builds the real binaries, boots a tile-partitioned
// fleet — N ildq-serve shard processes plus an ildq-router in front —
// and, next to it, one reference ildq-serve holding all the data.
// Every round it pushes the same update batch (straddling objects
// included, so replication and move-deletes are exercised) through
// both deployments, then replays range and nearest-neighbor queries
// against both and fails unless every probability comes back
// Float64bits-identical: the scatter-gather fleet must be
// indistinguishable from a single engine. A standing query straddling
// the shard borders is registered on both deployments and its delta
// streams are drained throughout: after every round both replays —
// the fleet's per shard tag, folded by owner — must equal the single
// engine's answer bit for bit, and the router runs with a
// -shard-timeout shorter than the streams live, which must not end
// them. Finally the query is deregistered (both streams must end with
// a close event) and both deployments are shut down with SIGTERM and
// must exit cleanly.
//
// Run with: go run ./examples/cluster [-shards 2] [-rounds 3]
// (from the repository root; the harness runs `go build`).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

const world = 10000.0

// The wire format, as an external client sees it (doc/serving.md).
type issuerJSON struct {
	Region []float64 `json:"region"`
}

type requestJSON struct {
	Kind      string     `json:"kind,omitempty"`
	Issuer    issuerJSON `json:"issuer"`
	W         float64    `json:"w,omitempty"`
	H         float64    `json:"h,omitempty"`
	Threshold float64    `json:"threshold,omitempty"`
	K         int        `json:"k,omitempty"`
	NNSamples int        `json:"nn_samples,omitempty"`
	Seed      int64      `json:"seed,omitempty"`
}

type matchJSON struct {
	ID int64   `json:"id"`
	P  float64 `json:"p"`
}

type evaluateResponse struct {
	Matches       []matchJSON `json:"matches"`
	Partial       bool        `json:"partial,omitempty"`
	MissingShards []string    `json:"missing_shards,omitempty"`
}

type updateJSON struct {
	Op     string    `json:"op"`
	ID     int64     `json:"id"`
	Region []float64 `json:"region,omitempty"`
	X      float64   `json:"x,omitempty"`
	Y      float64   `json:"y,omitempty"`
}

type updatesResponse struct {
	Applied  int               `json:"applied"`
	Partial  bool              `json:"partial,omitempty"`
	Versions map[string]uint64 `json:"versions,omitempty"`
}

type registerResponse struct {
	ID int64 `json:"id"`
}

type deltaJSON struct {
	Shard   string      `json:"shard,omitempty"`
	Entered []matchJSON `json:"entered,omitempty"`
	Updated []matchJSON `json:"updated,omitempty"`
	Left    []int64     `json:"left,omitempty"`
}

// shardTimeout is the router's -shard-timeout: shorter than the
// standing query's streams live, so a stream bound by it would break.
const shardTimeout = time.Second

func main() {
	shards := flag.Int("shards", 2, "fleet size")
	rounds := flag.Int("rounds", 3, "update+query rounds")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()
	log.SetFlags(0)

	bin, err := os.MkdirTemp("", "ildq-cluster-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(bin)
	for _, cmd := range []string{"ildq-serve", "ildq-router"} {
		build := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fatalf("building %s: %v", cmd, err)
		}
	}

	// The fleet: a 4x2 tile grid split across the shards, each member
	// told its identity and the shared map.
	spec := fmt.Sprintf("grid:4x2@0,0,%g,%g;shards=%d", world, world, *shards)
	defer func() {
		for _, p := range procs {
			p.kill()
		}
	}()
	shardURLs := make([]string, *shards)
	for i := range *shards {
		addr := freeAddr()
		shardURLs[i] = "http://" + addr
		procs = append(procs, start(filepath.Join(bin, "ildq-serve"),
			"-addr", addr, "-shard-id", fmt.Sprint(i), "-tiles", spec, "-log-level", "warn"))
	}
	routerAddr := freeAddr()
	routerURL := "http://" + routerAddr
	refAddr := freeAddr()
	refURL := "http://" + refAddr
	procs = append(procs, start(filepath.Join(bin, "ildq-serve"),
		"-addr", refAddr, "-log-level", "warn"))
	for _, u := range append([]string{refURL}, shardURLs...) {
		waitHealthy(u)
	}
	procs = append(procs, start(filepath.Join(bin, "ildq-router"),
		"-addr", routerAddr, "-shards", joinComma(shardURLs), "-tiles", spec, "-log-level", "warn",
		"-shard-timeout", shardTimeout.String()))
	waitHealthy(routerURL)
	log.Printf("fleet up: %d shards behind %s, reference at %s", *shards, routerURL, refURL)

	// One standing query across the shard borders, on both deployments;
	// the seed makes the fleet's members and the reference sample alike.
	standing := requestJSON{Kind: "uncertain", Issuer: issuerJSON{Region: []float64{4700, 4700, 5300, 5300}},
		W: 1500, H: 1500, Threshold: 0.05, Seed: 7}
	var fleetReg, refReg registerResponse
	post(routerURL+"/v1/queries", standing, &fleetReg)
	post(refURL+"/v1/queries", standing, &refReg)
	fleetStream := follow(fmt.Sprintf("%s/v1/queries/%d/stream", routerURL, fleetReg.ID))
	refStream := follow(fmt.Sprintf("%s/v1/queries/%d/stream", refURL, refReg.ID))
	opened := time.Now()

	// The workload: every round, one batch of moves (some centered on
	// the x=5000 / y=5000 shard borders so objects straddle members),
	// then seeded queries of each kind against both deployments.
	rng := rand.New(rand.NewSource(*seed))
	queriesRun := 0
	for round := range *rounds {
		// Pace the rounds so the streams outlive the router's timeout.
		time.Sleep(time.Until(opened.Add(time.Duration(round) * shardTimeout * 6 / 10)))
		var ups []updateJSON
		for i := range 30 {
			id := int64(rng.Intn(40))
			switch {
			case i%3 == 2:
				ups = append(ups, updateJSON{Op: "upsert_point", ID: 1000 + id,
					X: rng.Float64() * world, Y: rng.Float64() * world})
			default:
				cx, cy := rng.Float64()*world, rng.Float64()*world
				if rng.Intn(3) == 0 { // straddler
					cx, cy = 5000, float64(rng.Intn(2))*2500+2500
				}
				hw, hh := 30+rng.Float64()*300, 30+rng.Float64()*300
				ups = append(ups, updateJSON{Op: "upsert_object", ID: id, Region: []float64{
					math.Max(0, cx-hw), math.Max(0, cy-hh),
					math.Min(world, cx+hw), math.Min(world, cy+hh)}})
			}
		}
		var viaRouter, viaRef updatesResponse
		post(routerURL+"/v1/updates", map[string]any{"updates": ups}, &viaRouter)
		post(refURL+"/v1/updates", map[string]any{"updates": ups}, &viaRef)
		if viaRouter.Partial {
			fatalf("round %d: router reported a partial update batch: %+v", round, viaRouter)
		}

		cx, cy := rng.Float64()*9000+500, rng.Float64()*9000+500
		iss := issuerJSON{Region: []float64{cx - 250, cy - 250, cx + 250, cy + 250}}
		for _, q := range []requestJSON{
			{Kind: "uncertain", Issuer: iss, W: 1200, H: 1200, Threshold: 0.1, Seed: rng.Int63()},
			{Kind: "points", Issuer: iss, W: 1500, H: 1500, Threshold: 0.3, Seed: rng.Int63()},
			{Kind: "nn", Issuer: iss, K: 3, NNSamples: 256, Seed: rng.Int63()},
		} {
			var got, want evaluateResponse
			post(routerURL+"/v1/evaluate", q, &got)
			post(refURL+"/v1/evaluate", q, &want)
			if got.Partial {
				fatalf("round %d: %s: partial response, missing %v", round, q.Kind, got.MissingShards)
			}
			if len(got.Matches) != len(want.Matches) {
				fatalf("round %d: %s: fleet %d matches, single engine %d\nfleet:  %+v\nsingle: %+v",
					round, q.Kind, len(got.Matches), len(want.Matches), got.Matches, want.Matches)
			}
			for i := range want.Matches {
				g, w := got.Matches[i], want.Matches[i]
				if g.ID != w.ID || math.Float64bits(g.P) != math.Float64bits(w.P) {
					fatalf("round %d: %s: match %d differs: fleet {%d %v} single {%d %v}",
						round, q.Kind, i, g.ID, g.P, w.ID, w.P)
				}
			}
			queriesRun++
		}
		// The standing query: both replays must reach the single engine's
		// answer to the same request.
		var truth evaluateResponse
		post(refURL+"/v1/evaluate", standing, &truth)
		want := map[int64]float64{}
		for _, m := range truth.Matches {
			want[m.ID] = m.P
		}
		for name, st := range map[string]*stream{"fleet": fleetStream, "reference": refStream} {
			if err := st.await(want); err != nil {
				fatalf("round %d: %s standing-query replay: %v", round, name, err)
			}
		}
		log.Printf("round %d: %d updates routed, versions %v; 3 query kinds and the standing query (%d matches) bit-exact",
			round, viaRouter.Applied, viaRouter.Versions, len(want))
	}
	if age := time.Since(opened); *rounds > 2 && age <= shardTimeout {
		fatalf("the standing query's streams lived %v, not past the router's -shard-timeout %v", age, shardTimeout)
	}
	for _, d := range []struct {
		base string
		id   int64
		st   *stream
	}{{routerURL, fleetReg.ID, fleetStream}, {refURL, refReg.ID, refStream}} {
		req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/queries/%d", d.base, d.id), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil || resp.StatusCode != http.StatusNoContent {
			fatalf("deregistering the standing query at %s: %v %v", d.base, err, resp)
		}
		resp.Body.Close()
		if end := d.st.end(); end != "close" {
			fatalf("the standing query's stream at %s ended with %q, want close", d.base, end)
		}
	}

	// Graceful shutdown: router first, then the engines; every process
	// must exit zero on SIGTERM.
	for i := len(procs) - 1; i >= 0; i-- {
		if err := procs[i].stop(); err != nil {
			fatalf("shutdown: %v", err)
		}
	}
	log.Printf("ok: %d rounds, %d queries bit-exact across %d shards, clean shutdown", *rounds, queriesRun, *shards)
}

// stream follows one standing query's delta stream, replaying each
// shard tag's frames ("" for a single engine) into its own set.
type stream struct {
	mu     sync.Mutex
	sets   map[string]map[int64]float64
	err    error  // a frame that would not decode
	ending string // the event that ended the stream
	done   chan struct{}
}

func follow(url string) *stream {
	resp, err := http.Get(url)
	if err != nil || resp.StatusCode != http.StatusOK {
		fatalf("GET %s: %v %v", url, err, resp)
	}
	st := &stream{sets: map[string]map[int64]float64{}, done: make(chan struct{})}
	go func() {
		defer close(st.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 16<<20)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			if ev, ok := strings.CutPrefix(line, "event: "); ok {
				event = ev
				continue
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			st.mu.Lock()
			if event != "" {
				st.ending = event + " " + data
				if event == "close" {
					st.ending = "close"
				}
			} else {
				var d deltaJSON
				if err := json.Unmarshal([]byte(data), &d); err != nil {
					st.err = fmt.Errorf("frame %q: %w", data, err)
				}
				set := st.sets[d.Shard]
				if set == nil {
					set = map[int64]float64{}
					st.sets[d.Shard] = set
				}
				for _, id := range d.Left {
					delete(set, id)
				}
				for _, m := range append(d.Entered, d.Updated...) {
					set[m.ID] = m.P
				}
			}
			st.mu.Unlock()
			event = ""
		}
	}()
	return st
}

// await waits until the replay, folded across shard tags, equals want
// Float64bits for Float64bits; a replicated object must carry the same
// bits on every shard.
func (st *stream) await(want map[int64]float64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		st.mu.Lock()
		err, ending := st.err, st.ending
		folded, agree := map[int64]float64{}, true
		for _, set := range st.sets {
			for id, p := range set {
				if q, ok := folded[id]; ok && math.Float64bits(p) != math.Float64bits(q) {
					agree = false
				}
				folded[id] = p
			}
		}
		st.mu.Unlock()
		if err != nil {
			return err
		}
		if ending != "" {
			return fmt.Errorf("stream ended: %s", ending)
		}
		same := agree && len(folded) == len(want)
		for id, p := range want {
			if q, ok := folded[id]; !ok || math.Float64bits(p) != math.Float64bits(q) {
				same = false
			}
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replay %v (replicas agree: %v), single engine %v", folded, agree, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// end waits for the stream to end and returns the event that ended it.
func (st *stream) end() string {
	select {
	case <-st.done:
	case <-time.After(10 * time.Second):
		return "nothing within 10s"
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ending
}

// procs are the servers the harness started; fatalf stops them before
// exiting, so a failed run does not leave them holding its output.
var procs []*process

func fatalf(format string, args ...any) {
	for _, p := range procs {
		p.kill()
	}
	log.Fatalf(format, args...)
}

type process struct {
	name string
	cmd  *exec.Cmd
}

func start(path string, args ...string) *process {
	cmd := exec.Command(path, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatalf("starting %s: %v", filepath.Base(path), err)
	}
	return &process{name: filepath.Base(path) + " " + args[1], cmd: cmd}
}

func (p *process) stop() error {
	if err := p.cmd.Process.Signal(os.Interrupt); err != nil {
		return fmt.Errorf("%s: signal: %w", p.name, err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		return nil
	case <-time.After(15 * time.Second):
		p.kill()
		return fmt.Errorf("%s: did not exit within 15s of SIGTERM", p.name)
	}
}

func (p *process) kill() {
	if p.cmd.ProcessState == nil {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

func freeAddr() string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("%v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitHealthy(base string) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	fatalf("%s never became healthy", base)
}

func post(url string, in, out any) {
	body, err := json.Marshal(in)
	if err != nil {
		fatalf("%v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, msg.String())
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		fatalf("POST %s: decoding: %v", url, err)
	}
}

func joinComma(s []string) string {
	out := ""
	for i, v := range s {
		if i > 0 {
			out += ","
		}
		out += v
	}
	return out
}
