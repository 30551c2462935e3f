package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/serve"
)

// workload is one traffic mix. benchmark/README.md records why each
// one is here.
type workload struct {
	name string
	// kind is the query kind of the primary operation; empty when the
	// primary operation is a move batch.
	kind string
	// standing is the number of standing range queries registered
	// through the router before timing, their delta streams drained.
	standing int
	// paced adds one writer sending a batch every pacedPeriod beside the
	// closed-loop clients.
	paced bool
	// traceOps is the number of operations the traced run drives.
	traceOps int
}

var workloads = []workload{
	{name: "range_ro", kind: "uncertain", traceOps: 2000},
	{name: "nn_ro", kind: "nn", traceOps: 1000},
	{name: "ingest_standing", standing: 64, traceOps: 500},
	{name: "mixed_rw", kind: "uncertain", paced: true, traceOps: 2000},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pacedPeriod spaces the paced writer's batches: 50 a second, about a
// twelfth of one core's time at the bare ingest cost.
const pacedPeriod = 20 * time.Millisecond

// lane is one closed-loop client with its private request streams.
type lane struct {
	c  *client
	qs *queryStream
	mv *mover
	writeStats
}

// writeStats books what the fleet said it did with a lane's batches.
type writeStats struct {
	batches                       []sentBatch
	logical, applied              int // updates sent; physical updates applied (replicas included)
	reevaluated, skipped, emitted int
}

func (a *writeStats) add(b writeStats) {
	a.batches = append(a.batches, b.batches...)
	a.logical += b.logical
	a.applied += b.applied
	a.reevaluated += b.reevaluated
	a.skipped += b.skipped
	a.emitted += b.emitted
}

func (l *lane) close() { l.c.close() }

// write sends one move batch and books what the fleet said it did.
func (l *lane) write() error {
	batch := l.mv.next()
	sent := time.Now()
	resp, err := l.c.update(batch)
	if err != nil {
		return err
	}
	l.add(writeStats{
		batches: []sentBatch{{sent: sent, versions: resp.Versions}},
		logical: len(batch), applied: resp.Applied,
		reevaluated: resp.Reevaluated, skipped: resp.Skipped,
		emitted: resp.Entered + resp.Left + resp.Changed,
	})
	return nil
}

// op is the workload's primary operation on one lane.
func (w workload) op(l *lane) error {
	if w.kind == "" {
		return l.write()
	}
	_, err := l.c.evaluate(l.qs.next(w.kind))
	return err
}

// phase is the outcome of one timed window.
type phase struct {
	samples []sample
	tally   tally
	// Paced writer, when the workload has one: latency from due time
	// and how late each batch left the generator, in ms.
	writeLat, writeLag []float64
}

// runPhase drives the lanes closed-loop for d: every lane issues its
// next operation as soon as the previous one completes and stops
// issuing at the bell; in-flight operations run to completion. With a
// paced lane, that writer runs beside them on its own schedule.
func runPhase(w workload, lanes []*lane, paced *lane, d time.Duration) phase {
	var ph phase
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			var t tally
			for time.Since(start) < d {
				t0 := time.Now()
				err := w.op(l)
				t1 := time.Now()
				t.count(w.name+" op", err)
				mine = append(mine, sample{end: t1.Sub(start), lat: t1.Sub(t0), ok: err == nil})
			}
			mu.Lock()
			ph.samples = append(ph.samples, mine...)
			ph.tally.add(t)
			mu.Unlock()
		}()
	}
	if paced != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			var lat, lag []float64
			// Open loop: batch i is due at start + i*period whether or
			// not earlier ones have returned, and is timed from then.
			for i := 0; ; i++ {
				due := start.Add(time.Duration(i) * pacedPeriod)
				if due.Sub(start) >= d {
					break
				}
				time.Sleep(time.Until(due))
				lag = append(lag, ms(time.Since(due)))
				err := paced.write()
				t.count("paced batch", err)
				if err == nil {
					lat = append(lat, ms(time.Since(due)))
				}
			}
			mu.Lock()
			ph.writeLat, ph.writeLag = lat, lag
			ph.tally.add(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return ph
}

// target is a deployment under test: the real process fleet, or the
// in-process one the smoke test uses.
type target struct {
	url      string
	usage    func() (usage, error)
	walBytes func() int64
}

func (f *fleet) target() target {
	return target{url: f.routerURL, usage: f.usage, walBytes: func() int64 { return walBytes(f.dataDir) }}
}

// bulkLoad pushes the world through the router on one connection.
func bulkLoad(url string, batches [][]serve.UpdateJSON) (tally, error) {
	var t tally
	c := newClient(url)
	defer c.close()
	for _, b := range batches {
		_, err := c.update(b)
		t.count("bulk load", err)
		if err != nil {
			return t, fmt.Errorf("bulk load: %w", err)
		}
	}
	return t, nil
}

// standingSeed places the standing queries. They are part of the fixed
// set-up, like the data: what one batch costs is the sum over 64
// queries of a heavy-tailed per-query cost (dense regions are both hit
// more often and dearer to re-evaluate), so placing them by the run
// seed would make every seed a different workload.
const standingSeed = 0

// registerStanding registers n standing range queries through the
// router and opens a draining reader on each delta stream.
func registerStanding(url string, qs *queryStream, n int, t *tally) (*deltaReaders, error) {
	c := newClient(url)
	defer c.close()
	ids := make([]int64, n)
	for i := range ids {
		var reg serve.RegisterResponse
		err := c.post("/v1/queries", qs.next("uncertain"), &reg)
		t.count("register standing query", err)
		if err != nil {
			return nil, err
		}
		ids[i] = reg.ID
	}
	return openDeltaStreams(url, ids)
}

// A run alternates a solo window (one client: the latency chain with
// nothing contending) with a saturation window (nproc clients:
// throughput, tail, CPU per op), one such round per measured second,
// and reads the host yardstick (hostref.go) at every window boundary.
// Each timed figure is taken per window, scaled by the yardstick's
// readings around that window, and reported as the quartile on its good
// side over the rounds' windows: what the host takes away only ever
// adds time, so the better quarter of the windows is the estimate a
// disturbance covering up to three quarters of the run does not move.
// README.md ("Noise") has the series these choices were measured on.
const (
	soloShare = 0.4 // of a round; the rest is the saturation window
	minRounds = 3
)

// roundTimes splits the measured seconds into rounds of a solo and a
// saturation window.
func roundTimes(seconds float64) (rounds int, solo, sat time.Duration) {
	rounds = max(minRounds, int(seconds))
	round := time.Duration(seconds * float64(time.Second) / float64(rounds))
	solo = time.Duration(float64(round) * soloShare)
	return rounds, solo, round - solo
}

// measured is everything one workload's timed windows yield.
type measured struct {
	e2e, layer values
	tally      tally
	// For the log: how many solo operations there were, and their median
	// latency as the clock read it, unscaled.
	soloN           int
	unscaledSoloP50 float64
}

// measure runs the warm-up and the rounds of solo and saturation
// windows of one workload on a loaded deployment and derives the
// metrics from them. clients is the closed-loop client count of the
// saturation windows.
func measure(tg target, w workload, wd *world, seed int64, clients int, warm time.Duration, seconds float64, probe *hostProbe) (measured, error) {
	m := measured{e2e: values{}, layer: values{}}
	writers := clients
	if w.paced {
		writers = 1
	}
	lanes := make([]*lane, clients)
	for i := range lanes {
		lanes[i] = &lane{c: newClient(tg.url), qs: newQueryStream(wd, seed, w.name, i)}
		if w.kind == "" {
			lanes[i].mv = newMover(wd, seed, w.name+"/moves", i, writers)
		}
		defer lanes[i].close()
	}
	var paced *lane
	if w.paced {
		paced = &lane{c: newClient(tg.url), mv: newMover(wd, seed, w.name+"/moves", 0, writers)}
		defer paced.close()
	}
	writeLanes := lanes
	if paced != nil {
		writeLanes = []*lane{paced}
	}

	var streams *deltaReaders
	if w.standing > 0 {
		var err error
		streams, err = registerStanding(tg.url, newQueryStream(wd, standingSeed, w.name+"/standing", 0), w.standing, &m.tally)
		if err != nil {
			return m, err
		}
		defer streams.close()
	}

	m.tally.add(runPhase(w, lanes, paced, warm).tally)
	// Only batches of the measured windows count towards the write
	// figures; forget the warm-up's.
	for _, l := range writeLanes {
		l.writeStats = writeStats{}
	}
	wal0 := tg.walBytes()

	rounds, soloD, satD := roundTimes(seconds)
	var soloAll, satAll, writeLat, writeLag []float64
	var soloP50, rate, p90, fleetCPU, routerCPU, shardCPU, selfCPU, refWall, refCPU []float64
	var last usage
	ref := probe.read()
	for range rounds {
		solo := runPhase(w, lanes[:1], paced, soloD)
		mid := probe.read()
		before, err := tg.usage()
		if err != nil {
			return m, err
		}
		sat := runPhase(w, lanes, paced, satD)
		after, err := tg.usage()
		if err != nil {
			return m, err
		}
		next := probe.read()
		soloSpeed, _ := speedBetween(ref, mid)
		satSpeed, cpuSpeed := speedBetween(mid, next)
		refWall, refCPU = append(refWall, ref.wall, mid.wall), append(refCPU, ref.cpu, mid.cpu)
		m.tally.add(solo.tally)
		m.tally.add(sat.tally)
		writeLat = append(append(writeLat, solo.writeLat...), sat.writeLat...)
		writeLag = append(append(writeLag, solo.writeLag...), sat.writeLag...)

		lat := latenciesMS(solo.samples)
		soloAll = append(soloAll, lat...)
		soloP50 = append(soloP50, median(lat)/soloSpeed)
		lat = latenciesMS(sat.samples)
		satAll = append(satAll, lat...)
		r, p := windowStats(sat.samples, satD)
		rate, p90 = append(rate, r*satSpeed), append(p90, p/satSpeed)
		ops := float64(len(lat)) * cpuSpeed
		fleetCPU = append(fleetCPU, ms(after.routerCPU-before.routerCPU+after.shardCPU-before.shardCPU)/ops)
		routerCPU = append(routerCPU, ms(after.routerCPU-before.routerCPU)/ops)
		shardCPU = append(shardCPU, ms(after.shardCPU-before.shardCPU)/ops)
		selfCPU = append(selfCPU, ms(after.selfCPU-before.selfCPU)/ops)
		ref, last = next, after
	}
	wal1 := tg.walBytes()
	m.soloN = len(soloAll)

	m.e2e["solo_p50_ms"] = goodQuartile(soloP50, false)
	m.e2e["ops_s"] = goodQuartile(rate, true)
	m.e2e["sat_p90_ms"] = goodQuartile(p90, false)
	m.layer["shard.router_cpu_ms_per_op"] = goodQuartile(routerCPU, false)
	m.layer["serve.shard_cpu_ms_per_op"] = goodQuartile(shardCPU, false)
	m.layer["client.cpu_ms_per_op"] = goodQuartile(selfCPU, false)
	m.e2e["cpu_ms_per_op"] = goodQuartile(fleetCPU, false)
	m.e2e["fleet_rss_mb"] = float64(last.routerRSS+last.shardRSS) / (1 << 20)
	m.layer["shard.router_rss_mb"] = float64(last.routerRSS) / (1 << 20)
	m.layer["serve.shard_rss_mb"] = float64(last.shardRSS) / (1 << 20)
	m.layer["client.solo_p99_ms"] = percentile(soloAll, 0.99)
	m.layer["client.sat_p99_ms"] = percentile(satAll, 0.99)
	m.layer["client.host_ref_wall_ms"] = median(refWall)
	m.layer["client.host_ref_cpu_ms"] = median(refCPU)
	m.unscaledSoloP50 = median(soloAll)

	// Write-side figures; every one stays 0 on a read-only workload.
	var sum writeStats
	for _, l := range writeLanes {
		sum.add(l.writeStats)
	}
	for _, name := range []string{"client.write_p50_ms", "client.gen_lag_p99_ms", "client.delta_p50_ms",
		"wal.bytes_per_update", "shard.replica_writes_per_update",
		"monitor.reevaluated_per_batch", "monitor.skipped_frac", "monitor.deltas_per_batch"} {
		m.layer[name] = 0
	}
	if w.paced {
		m.layer["client.write_p50_ms"] = median(writeLat)
		m.layer["client.gen_lag_p99_ms"] = percentile(writeLag, 0.99)
	}
	if n := float64(len(sum.batches)); n > 0 {
		m.layer["wal.bytes_per_update"] = float64(wal1-wal0) / float64(sum.logical)
		m.layer["shard.replica_writes_per_update"] = float64(sum.applied) / float64(sum.logical)
		m.layer["monitor.reevaluated_per_batch"] = float64(sum.reevaluated) / n
		m.layer["monitor.deltas_per_batch"] = float64(sum.emitted) / n
		if pairs := sum.reevaluated + sum.skipped; pairs > 0 {
			m.layer["monitor.skipped_frac"] = float64(sum.skipped) / float64(pairs)
		}
	}
	if streams != nil {
		m.layer["client.delta_p50_ms"] = median(deltaLatenciesMS(sum.batches, streams.close()))
	}
	return m, nil
}
