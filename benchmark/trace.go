package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/serve"
)

// In the traced run one client drives a fixed number of operations
// (workload.traceOps — fixed, so the per-operation counts repeat
// exactly for a given seed) after traceWarm unrecorded ones. Every
// fourth operation runs with the recorder off: the gap between the two
// kinds is what tracing itself costs. On mixed_rw every eighth
// operation (never an unrecorded one) is one of the writer's batches,
// about its 50/s beside a solo reader.
const traceWarm = 200

// tracedOp is what the client saw of one operation.
type tracedOp struct {
	op       int // operation number, from 1; warm-up operations are <= 0
	write    bool
	traced   bool
	lat      time.Duration
	req      serve.RequestJSON // reads
	cost     serve.CostJSON    // reads
	matches  int               // reads
	from, to int               // traced: the operation's spans are recorder.spans[from:to]
}

// runTraced yields the per-layer metrics: a short untraced process run
// for the figures only real processes have (CPU and memory by process,
// tails, WAL growth, delta latency), then the traced in-process run.
func runTraced(cfg config, w workload) (values, tally, error) {
	sz := paperSizing
	wd := genWorld(sz.rects, sz.points)
	probe := newHostProbe()
	f, _, total, err := setUpRepeatedly(cfg, w, wd, 1, probe)
	if err != nil {
		return nil, total, err
	}
	defer f.kill()
	m, err := checkAndMeasure(f.target(), w, wd, cfg.seed, cfg.seconds*0.4, sz, probe, &total)
	if err != nil {
		return nil, total, err
	}
	if err := f.stop(); err != nil {
		return nil, total, err
	}

	// A fresh world: the process run's writers have moved the first.
	wd = genWorld(sz.rects, sz.points)
	out := filepath.Join(cfg.root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, total, err
	}
	v, t, err := traceInproc(dataDir(cfg, w, 0), filepath.Join(out, "trace-"+w.name+".jsonl"), w, wd, cfg.seed, sz)
	total.add(t)
	if err != nil {
		return nil, total, err
	}
	for name, x := range m.layer {
		v[name] = x
	}
	if err := checkLayerSum(v); err != nil {
		return nil, total, err
	}
	return v, total, nil
}

// checkLayerSum is the gate on the layer table. Where every span
// exists the rows telescope, so their sum can only leave the traced
// mean when spans are missing; what the sum cannot show is a row taken
// from a replay or a reply (the write rows, core.eval_ms) that
// disagrees with the span it is subtracted from — then the remainder,
// serve.handler_self_ms, goes negative. So no remainder row may be
// negative by more than 2% of the traced mean.
func checkLayerSum(v values) error {
	if frac := v["client.layer_sum_frac"]; frac < 0.9 || frac > 1.1 {
		return fmt.Errorf("the layer rows sum to %.3f of the traced mean latency", frac)
	}
	for _, name := range []string{"client.self_ms", "shard.router_self_ms", "shard.hop_ms", "serve.handler_self_ms"} {
		if v[name] < -0.02*v["client.traced_mean_ms"] {
			return fmt.Errorf("layer row %s is %.4f ms of a traced mean of %.4f ms: what is subtracted from its span exceeds the span",
				name, v[name], v["client.traced_mean_ms"])
		}
	}
	return nil
}

// traceInproc runs the traced operations of one workload on a fresh
// in-process fleet, writes the spans to jsonl, and returns the layer
// metrics that come from them.
func traceInproc(dir, jsonl string, w workload, wd *world, seed int64, sz sizing) (values, tally, error) {
	var total tally
	f, err := startInproc(dir)
	if err != nil {
		return nil, total, err
	}
	defer f.close()
	t, err := bulkLoad(f.router.URL, wd.loadBatches())
	total.add(t)
	if err != nil {
		return nil, total, err
	}
	f.markLoaded()
	if w.standing > 0 {
		streams, err := registerStanding(f.router.URL, newQueryStream(wd, standingSeed, w.name+"/standing", 0), w.standing, &total)
		if err != nil {
			return nil, total, err
		}
		defer streams.close()
	}

	l := &lane{c: newClient(f.router.URL), qs: newQueryStream(wd, seed, w.name+"/traced", 0),
		mv: newMover(wd, seed, w.name+"/traced-moves", 0, 1)}
	defer l.close()
	nOps := min(w.traceOps, sz.traceOpsCap)
	ops := make([]tracedOp, 0, nOps)
	for i := -min(traceWarm, nOps); i < nOps; i++ {
		op := tracedOp{op: i + 1, traced: i >= 0 && i%4 != 3}
		op.write = w.kind == "" || (w.paced && i >= 0 && i%8 == 5)
		err := f.runOp(l, w, &op)
		total.count(w.name+" traced op", err)
		if err != nil {
			return nil, total, err
		}
		if i >= 0 {
			ops = append(ops, op)
		}
	}
	if err := f.rec.writeJSONL(jsonl); err != nil {
		return nil, total, err
	}
	replay, err := f.replayWrites(ops)
	if err != nil {
		return nil, total, err
	}
	v := layerValues(w, f.rec.spans, ops, replay)
	v["shard.retries"] = float64(f.retries.Load())
	return v, total, nil
}

// runOp performs one operation, recorded when op.traced.
func (f *inproc) runOp(l *lane, w workload, op *tracedOp) error {
	var batch []serve.UpdateJSON
	if op.write {
		batch = l.mv.next()
	} else {
		op.req = l.qs.next(w.kind)
	}
	id := -1
	if op.traced {
		op.from = f.rec.startOp(op.op)
		id, _ = f.rec.begin(spanClient, -1, "")
	}
	t0 := time.Now()
	var err error
	if op.write {
		_, err = l.c.update(batch)
	} else {
		var resp serve.EvaluateResponse
		resp, err = l.c.evaluate(op.req)
		op.cost, op.matches = resp.Cost, len(resp.Matches)
	}
	op.lat = time.Since(t0)
	if op.traced {
		f.rec.end(id, nil)
		f.rec.endOp()
		op.to = f.finishSpans(op)
	}
	return err
}

// slowestServe is the index of the longest serve span in spans — the
// shard the operation waited for — or -1.
func slowestServe(spans []span) int {
	slow := -1
	for i, s := range spans {
		if s.Name == spanServe && (slow < 0 || s.dur() > spans[slow].dur()) {
			slow = i
		}
	}
	return slow
}

// finishSpans does the work deferred until the operation is over, and
// returns the end of the operation's span range. It reads the engine's
// own evaluation time out of each kept shard reply; and for an NN
// query — whose shard half, candidate collection, reports no time, and
// whose refinement runs at the router — it books the router's reported
// time on the router span and times the slowest shard's collection
// once more, as that shard's filter stage.
func (f *inproc) finishSpans(op *tracedOp) int {
	r := f.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.spans[op.from:]
	for i := range spans {
		s := &spans[i]
		if s.Name == spanServe && s.Path == "/v1/evaluate" {
			var reply struct {
				Cost serve.CostJSON `json:"cost"`
			}
			if json.Unmarshal(s.body, &reply) == nil {
				s.EvalMS = reply.Cost.DurationMS
			}
		}
		s.body = nil
		if s.Name == spanRouter && op.req.Kind == "nn" {
			s.EvalMS = op.cost.DurationMS
		}
	}
	if slow := slowestServe(spans); slow >= 0 && op.req.Kind == "nn" {
		if req, err := op.req.ToRequest(); err == nil {
			at, shard := spans[slow].Start, spans[slow].Shard
			snap := f.engines[shard].Snapshot()
			t0 := time.Now()
			_, err := snap.NNCandidates(context.Background(), req, core.NNCandidateOptions{Limit: 1 << 16})
			d := time.Since(t0).Nanoseconds()
			snap.Close()
			if err == nil {
				r.spans = append(r.spans, span{Name: "core.filter", Op: op.op, Parent: op.from + slow,
					Shard: shard, Path: "replayed", Start: at, End: at + d})
			}
		}
	}
	return len(r.spans)
}

// replayCost is what replaying one shard's sub-batch into twins of
// that shard cost, in ms.
type replayCost struct{ apply, wal, reeval float64 }

type replayKey struct{ op, shard int }

// sumOf adds up the time rows of v that belong to the layer sum.
func sumOf(v values) float64 {
	total := 0.0
	for name := range sumRows {
		total += v[name]
	}
	return total
}

// opRows turns one traced operation's spans into its rows of the layer
// table, keyed by metric name. Each layer gets its span minus what the
// layer below covers, so the time rows telescope to the client span
// (client.traced_mean_ms); only the engine-internal splits of a write
// (replayed) and of an NN shard call (re-timed) are not taken from the
// operation itself.
func opRows(op tracedOp, spans []span, replay map[replayKey]replayCost) values {
	r := values{}
	var client, router *span
	var hops []interval
	shards := map[int]bool{}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case spanClient:
			client = s
		case spanRouter:
			router = s
		case spanHop:
			hops = append(hops, interval{s.Start, s.End})
			shards[s.Shard] = true
			r["shard.fanout_width"]++
			if s.Path == "/v1/updates" {
				r["shard.subbatches_per_batch"]++
			}
		case spanServe:
			r["serve.req_bytes"] += float64(s.ReqBytes)
			r["serve.resp_bytes"] += float64(s.RespBytes)
		}
	}
	slowIdx := slowestServe(spans)
	if client == nil || router == nil || slowIdx < 0 {
		return r
	}
	slow := spans[slowIdx]
	serveMS := ms(slow.dur())
	inRouter := interval{router.Start, router.End}
	hopUnion := float64(covered(inRouter, hops)) / 1e6
	r["shard.hops_per_op"] = float64(len(shards))
	r["client.traced_mean_ms"] = ms(client.dur())
	r["client.self_ms"] = float64(selfTime(interval{client.Start, client.End}, []interval{inRouter})) / 1e6
	r["shard.router_self_ms"] = ms(router.dur()) - hopUnion - router.EvalMS
	r["shard.hop_ms"] = hopUnion - serveMS
	for _, s := range spans {
		if s.Shard == slow.Shard && strings.HasPrefix(s.Name, "core.") {
			r[s.Name+"_ms"] += ms(s.dur()) // core.pin_ms, core.filter_ms, core.refine_ms, core.merge_ms
		}
	}
	switch {
	case op.write:
		c := replay[replayKey{op.op, slow.Shard}]
		r["core.apply_ms"], r["wal.append_ms"], r["monitor.reeval_ms"] = c.apply, c.wal, c.reeval
		r["serve.handler_self_ms"] = serveMS - c.apply - c.wal - c.reeval
	case router.EvalMS > 0: // NN
		r["core.refine_ms"] = router.EvalMS
		r["core.eval_ms"] = r["core.filter_ms"] + router.EvalMS
		r["serve.handler_self_ms"] = serveMS - r["core.filter_ms"]
	default:
		r["core.eval_ms"] = slow.EvalMS
		r["serve.handler_self_ms"] = serveMS - slow.EvalMS
	}
	return r
}

// tracedMetrics are the per-layer metrics opRows yields; layerValues
// reports their means over the traced primary operations.
var tracedMetrics = []string{
	"client.traced_mean_ms", "client.self_ms", "shard.router_self_ms", "shard.hop_ms",
	"serve.handler_self_ms", "core.eval_ms", "core.apply_ms", "wal.append_ms", "monitor.reeval_ms",
	"core.pin_ms", "core.filter_ms", "core.refine_ms", "core.merge_ms",
	"shard.fanout_width", "shard.hops_per_op", "shard.subbatches_per_batch",
	"serve.req_bytes", "serve.resp_bytes",
}

// layerValues aggregates the traced run into the per-layer metrics it
// yields: means per primary operation, so the time rows add up to
// client.traced_mean_ms.
func layerValues(w workload, spans []span, ops []tracedOp, replay map[replayKey]replayCost) values {
	primary, side := values{}, values{} // side: mixed_rw's interleaved writes
	var tracedLat, untracedLat []float64
	var nPrimary, nSide float64
	cost := values{}
	for _, op := range ops {
		if op.write != (w.kind == "") {
			if op.traced {
				for name, x := range opRows(op, spans[op.from:op.to], replay) {
					side[name] += x
				}
				nSide++
			}
			continue
		}
		nPrimary++
		cost["core.node_accesses"] += float64(op.cost.NodeAccesses)
		cost["core.candidates"] += float64(op.cost.Candidates)
		cost["core.refined"] += float64(op.cost.Refined)
		cost["core.samples_used"] += float64(op.cost.SamplesUsed)
		cost["core.early_stopped"] += float64(op.cost.EarlyStopped)
		cost["core.matches"] += float64(op.matches)
		if !op.traced {
			untracedLat = append(untracedLat, ms(op.lat))
			continue
		}
		tracedLat = append(tracedLat, ms(op.lat))
		for name, x := range opRows(op, spans[op.from:op.to], replay) {
			primary[name] += x
		}
	}
	v := values{
		"client.layer_sum_frac":      sumOf(primary) / primary["client.traced_mean_ms"],
		"client.trace_overhead_frac": mean(tracedLat)/mean(untracedLat) - 1,
		"core.match_per_candidate":   0,
	}
	for _, name := range tracedMetrics {
		v[name] = primary[name] / float64(len(tracedLat))
	}
	for name, x := range cost {
		v[name] = x / nPrimary
	}
	if cost["core.candidates"] > 0 {
		v["core.match_per_candidate"] = cost["core.matches"] / cost["core.candidates"]
	}
	if nSide > 0 { // per paced batch, outside the sum
		for _, name := range []string{"core.apply_ms", "wal.append_ms", "shard.subbatches_per_batch"} {
			v[name] = side[name] / nSide
		}
	}
	return v
}

// subBatch is one batch a shard applied after the bulk load.
type subBatch struct {
	op    int // the traced operation it belongs to; 0 for an unrecorded one
	batch []core.Update
}

func decodeUpdates(body []byte) ([]core.Update, error) {
	var req serve.UpdatesRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	batch := make([]core.Update, len(req.Updates))
	for i, uj := range req.Updates {
		var err error
		if batch[i], err = uj.ToUpdate(); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

// replayWrites replays every shard's history — bulk load, standing
// queries, then every later sub-batch in order — into twins of that
// shard, to split the time a write spends inside it: an ephemeral
// engine gives core.apply_ms; a durable one, less that, wal.append_ms;
// a monitored one carrying the same standing queries, less that,
// monitor.reeval_ms. Only traced operations' sub-batches are timed.
func (f *inproc) replayWrites(ops []tracedOp) (map[replayKey]replayCost, error) {
	out := map[replayKey]replayCost{}
	anyWrite := false
	for _, op := range ops {
		anyWrite = anyWrite || op.write
	}
	if !anyWrite {
		return out, nil
	}
	for shard, calls := range f.history {
		var initial []core.Update
		var queries []core.Request
		var subs []subBatch
		for i, c := range calls {
			if c.path == "/v1/queries" {
				var rj serve.RequestJSON
				if err := json.Unmarshal(c.body, &rj); err != nil {
					return nil, err
				}
				req, err := rj.ToRequest()
				if err != nil {
					return nil, err
				}
				queries = append(queries, req)
				continue
			}
			batch, err := decodeUpdates(c.body)
			if err != nil {
				return nil, err
			}
			if i < f.loaded[shard] {
				initial = append(initial, batch...)
			} else {
				subs = append(subs, subBatch{c.op, batch})
			}
		}

		apply, err := replayTimed(subs, func() (*core.Engine, error) {
			return core.NewEngine(nil, nil, core.EngineOptions{})
		}, initial, nil)
		if err != nil {
			return nil, fmt.Errorf("shard %d's ephemeral twin: %w", shard, err)
		}
		durable, err := replayTimed(subs, func() (*core.Engine, error) {
			return core.Open(filepath.Join(f.dir, fmt.Sprintf("twin%d", shard)), shardEngineOptions)
		}, initial, nil)
		if err != nil {
			return nil, fmt.Errorf("shard %d's durable twin: %w", shard, err)
		}
		var monitored map[int]float64
		if len(queries) > 0 {
			monitored, err = replayTimed(subs, func() (*core.Engine, error) {
				return core.NewEngine(nil, nil, core.EngineOptions{})
			}, initial, queries)
			if err != nil {
				return nil, fmt.Errorf("shard %d's monitored twin: %w", shard, err)
			}
		}
		for op, a := range apply {
			c := replayCost{apply: a, wal: durable[op] - a}
			if monitored != nil {
				c.reeval = monitored[op] - a
			}
			out[replayKey{op, shard}] = c
		}
	}
	return out, nil
}

// replayTimed builds a twin engine holding initial, registers queries
// on a monitor over it when there are any, applies subs in order, and
// returns the time in ms each traced operation's sub-batch took.
func replayTimed(subs []subBatch, build func() (*core.Engine, error), initial []core.Update, queries []core.Request) (map[int]float64, error) {
	eng, err := build()
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	if rep := eng.ApplyUpdates(initial); len(rep.Errors) > 0 {
		return nil, rep.Errors[0]
	}
	apply := func(b []core.Update) error {
		if rep := eng.ApplyUpdates(b); len(rep.Errors) > 0 {
			return rep.Errors[0]
		}
		return nil
	}
	if len(queries) > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		mon := monitor.New(eng, shardMonitorConfig)
		for _, q := range queries {
			sub, err := mon.Register(q)
			if err != nil {
				return nil, err
			}
			go func() { // drain the deltas, as the stream readers did
				for {
					if _, err := sub.Next(ctx); err != nil {
						return
					}
				}
			}()
		}
		apply = func(b []core.Update) error {
			_, err := mon.ApplyUpdates(ctx, b)
			return err
		}
	}
	times := map[int]float64{}
	for _, s := range subs {
		t0 := time.Now()
		err := apply(s.batch)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if s.op > 0 {
			times[s.op] += ms(d)
		}
	}
	return times, nil
}
