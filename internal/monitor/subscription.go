package monitor

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/uncertain"
)

// ErrClosed is returned by Subscription.Next after the subscription
// has been unregistered and its pending deltas drained.
var ErrClosed = errors.New("monitor: subscription closed")

// Delta is one increment of a standing query's answer: the changes to
// the qualifying set caused by one update batch (or, for the first
// delta, the initial evaluation, whose Entered lists the whole set).
//
// Replay rule: starting from the previous state (empty before the
// first delta), delete every id in Left, then upsert every match in
// Entered and Updated with its probability — always, whether or not
// Err is set. The resulting set is exactly what a from-scratch
// evaluation of the engine state behind the delta's last successful
// re-evaluation reports.
type Delta struct {
	// Seq is the update-batch sequence number this delta reflects.
	// The registration snapshot carries the sequence current at
	// registration time (0 only if no batch has been ingested yet).
	Seq uint64
	// Version is the engine version the delta's re-evaluation observed
	// (the MVCC snapshot pinned with the batch commit). In a sharded
	// fleet each shard numbers its own versions, so a router streaming
	// merged deltas carries (shard, Version) pairs — a per-shard
	// version vector — and replay stays bit-exact per shard.
	Version uint64
	// Entered lists objects that now qualify but did not before,
	// ordered by descending probability.
	Entered []core.Match
	// Updated lists objects that qualified before and still do but
	// whose probability changed.
	Updated []core.Match
	// Left lists objects that no longer qualify, ascending by id.
	Left []uncertain.ID
	// Err, when non-nil, reports that the most recent re-evaluation
	// behind this delta failed (per-query deadline, sample budget,
	// cancelled ingestion pass), so the replayed answer may lag the
	// engine until the next batch — which re-evaluates a stale query
	// unconditionally and in full. A fresh error delta carries no
	// changes; a
	// coalesced one may still carry the changes of earlier successful
	// re-evaluations merged into it, which is why the replay rule
	// applies changes regardless of Err.
	Err error
	// Cost aggregates the evaluation cost behind this delta: what the
	// monitor actually spent, not what a from-scratch evaluation would.
	// A delta produced by per-object maintenance counts only the
	// objects it re-qualified — Candidates are the touching objects the
	// search region admitted, Refined and SamplesUsed the refinement
	// they took — and its NodeAccesses is 0, since no index is probed.
	// A full re-evaluation (registration, NN, MethodBasic, recovery
	// from an error) carries that evaluation's whole cost.
	Cost core.Cost
	// Coalesced counts the re-evaluations merged into this delta: 1
	// normally, more when a slow consumer forced composition (see
	// Config.MaxPending).
	Coalesced int
}

// Empty reports whether the delta changes nothing (and carries no
// error).
func (d Delta) Empty() bool {
	return len(d.Entered) == 0 && len(d.Updated) == 0 && len(d.Left) == 0 && d.Err == nil
}

// addCost folds b's counters into a.
func addCost(a *core.Cost, b core.Cost) {
	a.Candidates += b.Candidates
	a.PrunedStrategy1 += b.PrunedStrategy1
	a.PrunedStrategy2 += b.PrunedStrategy2
	a.PrunedStrategy3 += b.PrunedStrategy3
	a.Refined += b.Refined
	a.BelowThreshold += b.BelowThreshold
	a.SamplesUsed += b.SamplesUsed
	a.EarlyStopped += b.EarlyStopped
	a.NodeAccesses += b.NodeAccesses
	a.Duration += b.Duration
}

// deltaKind tracks one id's net transition while composing deltas.
type deltaKind int

const (
	kindEntered deltaKind = iota
	kindUpdated
	kindLeft
)

// compose merges two consecutive deltas into one whose replay effect
// equals applying a then b. The case analysis keys on what b's change
// means relative to the state before a: an id entering in b was
// present before a iff a removed it; an id leaving in b that a had
// entered nets out to nothing. Err follows the latest state: b's
// error stands (the merged changes are then those of the earlier
// successful evaluations), while an error in a superseded by a
// successful b is dropped — b's re-evaluation replaced the stale
// answer, so the transient failure is no longer observable.
func compose(a, b Delta) Delta {
	type entry struct {
		kind deltaKind
		p    float64
	}
	state := make(map[uncertain.ID]entry, len(a.Entered)+len(a.Updated)+len(a.Left))
	for _, m := range a.Entered {
		state[m.ID] = entry{kindEntered, m.P}
	}
	for _, m := range a.Updated {
		state[m.ID] = entry{kindUpdated, m.P}
	}
	for _, id := range a.Left {
		state[id] = entry{kind: kindLeft}
	}
	for _, m := range b.Entered {
		if prev, ok := state[m.ID]; ok && prev.kind == kindLeft {
			state[m.ID] = entry{kindUpdated, m.P} // was present before a
		} else {
			state[m.ID] = entry{kindEntered, m.P}
		}
	}
	for _, m := range b.Updated {
		if prev, ok := state[m.ID]; ok && prev.kind == kindEntered {
			state[m.ID] = entry{kindEntered, m.P}
		} else {
			state[m.ID] = entry{kindUpdated, m.P}
		}
	}
	for _, id := range b.Left {
		if prev, ok := state[id]; ok && prev.kind == kindEntered {
			delete(state, id) // entered and left within the window
		} else {
			state[id] = entry{kind: kindLeft}
		}
	}

	out := Delta{
		Seq:       b.Seq,
		Version:   b.Version,
		Err:       b.Err,
		Cost:      a.Cost,
		Coalesced: a.Coalesced + b.Coalesced,
	}
	addCost(&out.Cost, b.Cost)
	for id, e := range state {
		switch e.kind {
		case kindEntered:
			out.Entered = append(out.Entered, core.Match{ID: id, P: e.p})
		case kindUpdated:
			out.Updated = append(out.Updated, core.Match{ID: id, P: e.p})
		case kindLeft:
			out.Left = append(out.Left, id)
		}
	}
	sortMatches(out.Entered)
	sortMatches(out.Updated)
	slices.Sort(out.Left)
	return out
}

// sortMatches applies the engine's canonical result order.
func sortMatches(ms []core.Match) { core.SortMatches(ms) }

// SubStats are one subscription's lifetime counters.
type SubStats struct {
	// Reevals counts evaluations run for this query — full or
	// per-object, registration included; Skipped counts update batches
	// its guard region filtered out.
	Reevals int64
	Skipped int64
	// Deltas counts deltas queued; Coalesced counts compositions
	// forced by a full pending queue; Errors counts failed
	// re-evaluations.
	Deltas    int64
	Coalesced int64
	Errors    int64
	// Samples / NodeAccesses / EvalTime aggregate the evaluation cost
	// spent on this query; EarlyStopped counts candidates adaptive
	// refinement retired before the full sample budget.
	Samples      int64
	EarlyStopped int64
	NodeAccesses int64
	EvalTime     time.Duration
}

// Subscription is one registered standing request: a handle for
// consuming its delta stream (Next), inspecting its current answer
// (Snapshot), and unregistering it (Close).
type Subscription struct {
	id  int64
	req core.Request
	m   *Monitor

	mu sync.Mutex
	// guard is the region update batches are filtered against. Range
	// kinds fix it at registration; NN requests recompute it from
	// every evaluation's Result.Tau (the tau-ball bounding box plus
	// slack — see core.Request.GuardRegionTau), which is why it lives
	// under mu.
	guard   geom.Rect
	pending []Delta
	current map[uncertain.ID]float64
	closed  bool
	// stale marks a failed re-evaluation (the cached set may disagree
	// with the engine); the monitor re-evaluates stale subscriptions in
	// full on the next batch regardless of guard filtering.
	stale bool
	stats SubStats
	// feed, when set, is signalled at the end of a pass that queued a
	// delta here (see Attach).
	feed *Feed

	notify   chan struct{} // capacity 1: pending became non-empty
	closedCh chan struct{} // closed on Close/Unregister
}

// ID returns the subscription's registry id.
func (s *Subscription) ID() int64 { return s.id }

// Request returns the standing request as every evaluation of the
// subscription runs it: sampling sources cleared, default options
// applied, and Seed set — the registered one, or the monitor-derived
// one when the request carried none. Evaluating it from scratch on the
// engine version of the last delta reproduces the replayed set bit
// for bit.
func (s *Subscription) Request() core.Request { return s.req }

// Guard returns the guard region update batches are filtered against.
// For standing NN queries it tightens after every evaluation (the
// tau-ball around the issuer region) — batches that provably cannot
// change the nearest-neighbor answer are skipped like any range query.
func (s *Subscription) Guard() geom.Rect {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.guard
}

// updateGuardLocked recomputes the guard from a fresh evaluation. Only
// NN guards depend on the result (the pruning radius tau); an update
// batch inside the current guard may have shrunk or grown tau, and the
// re-evaluation that just ran measured the new value, so the
// recomputed ball is exact for the post-batch state. Skipped batches
// cannot invalidate it: an update entirely outside the tau-ball can
// neither displace the tau-attaining point (which lies inside) nor
// introduce a nearer one, so tau itself is unchanged.
func (s *Subscription) updateGuardLocked(res core.Result) {
	if s.req.Kind != core.KindNN {
		return
	}
	if g, err := s.req.GuardRegionTau(res.Tau); err == nil {
		s.guard = g
	}
}

// Snapshot returns the current qualifying set, in the engine's result
// order (descending probability, then id).
func (s *Subscription) Snapshot() []core.Match {
	s.mu.Lock()
	out := make([]core.Match, 0, len(s.current))
	for id, p := range s.current {
		out = append(out, core.Match{ID: id, P: p})
	}
	s.mu.Unlock()
	sortMatches(out)
	return out
}

// Size returns the current qualifying set's cardinality without
// materializing it (Snapshot allocates and sorts; metrics paths only
// need the count).
func (s *Subscription) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.current)
}

// Stats returns the subscription's counters.
func (s *Subscription) Stats() SubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Next returns the next pending delta, blocking until one is queued,
// ctx is done, or the subscription is closed. Pending deltas are
// always drained before ErrClosed is reported, so a consumer sees
// every change up to the close. Next is intended for a single
// consumer; concurrent callers each receive disjoint deltas.
func (s *Subscription) Next(ctx context.Context) (Delta, error) {
	for {
		if d, ok, err := s.Poll(); ok || err != nil {
			return d, err
		}
		select {
		case <-s.notify:
		case <-s.closedCh:
		case <-ctx.Done():
			return Delta{}, ctx.Err()
		}
	}
}

// Close unregisters the subscription from its monitor. Queued deltas
// remain drainable via Next until ErrClosed.
func (s *Subscription) Close() { s.m.Unregister(s.id) }

// touched classifies one batch against the subscription. changes are
// the batch's records sorted by (table, id). It returns needFull when
// the answer must be recomputed from scratch — the subscription is
// stale, or a change touches the guard of a request that is not
// decomposable — and otherwise the distinct ids, ascending and
// appended to buf, of the changes of the request's own table that
// touch its guard; none means the batch provably left the answer
// alone.
func (s *Subscription) touched(changes []core.Change, buf []uncertain.ID) (ids []uncertain.ID, needFull bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stale {
		return buf, true
	}
	table := s.req.Kind.Table()
	for _, c := range changes {
		if c.Table != table || !c.Touches(s.guard) {
			continue
		}
		if !s.req.Decomposable() {
			return buf, true
		}
		if n := len(buf); n == 0 || buf[n-1] != c.ID {
			buf = append(buf, c.ID)
		}
	}
	return buf, false
}

// applyPartial patches the cached qualifying set with a per-object
// re-qualification — ids (ascending) are the objects re-qualified, res
// lists those of them that qualify now — queues the delta, and returns
// it. A closed subscription ignores the result.
func (s *Subscription) applyPartial(seq, version uint64, ids []uncertain.ID, res core.Result) (Delta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Delta{}, false
	}
	d := Delta{Seq: seq, Version: version, Cost: res.Cost, Coalesced: 1}
	qualifies := make([]bool, len(ids))
	for _, m := range res.Matches {
		i, _ := slices.BinarySearch(ids, m.ID)
		qualifies[i] = true
		old, ok := s.current[m.ID]
		switch {
		case !ok:
			d.Entered = append(d.Entered, m)
		case math.Float64bits(old) != math.Float64bits(m.P):
			d.Updated = append(d.Updated, m)
		}
		s.current[m.ID] = m.P
	}
	for i, id := range ids {
		if _, ok := s.current[id]; ok && !qualifies[i] {
			d.Left = append(d.Left, id)
			delete(s.current, id)
		}
	}
	s.stats.Reevals++
	s.noteCostLocked(res.Cost)
	s.queueLocked(d)
	return d, true
}

// applyResult diffs a re-evaluation against the cached qualifying
// set, commits the new set, queues the delta, and returns it. A
// closed subscription ignores the result.
func (s *Subscription) applyResult(seq, version uint64, res core.Result) (Delta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Delta{}, false
	}
	d := Delta{Seq: seq, Version: version, Cost: res.Cost, Coalesced: 1}
	next := make(map[uncertain.ID]float64, len(res.Matches))
	for _, m := range res.Matches {
		next[m.ID] = m.P
		old, ok := s.current[m.ID]
		switch {
		case !ok:
			d.Entered = append(d.Entered, m)
		case math.Float64bits(old) != math.Float64bits(m.P):
			d.Updated = append(d.Updated, m)
		}
	}
	for id := range s.current {
		if _, ok := next[id]; !ok {
			d.Left = append(d.Left, id)
		}
	}
	slices.Sort(d.Left)
	s.current = next
	s.stale = false
	s.updateGuardLocked(res)
	s.stats.Reevals++
	s.noteCostLocked(res.Cost)
	s.queueLocked(d)
	return d, true
}

// applyError queues an error delta (the cached set is untouched).
func (s *Subscription) applyError(seq, version uint64, err error, cost core.Cost) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.stale = true
	s.stats.Reevals++
	s.stats.Errors++
	s.noteCostLocked(cost)
	s.queueLocked(Delta{Seq: seq, Version: version, Err: err, Cost: cost, Coalesced: 1})
}

func (s *Subscription) noteCostLocked(c core.Cost) {
	s.stats.Samples += c.SamplesUsed
	s.stats.EarlyStopped += int64(c.EarlyStopped)
	s.stats.NodeAccesses += c.NodeAccesses
	s.stats.EvalTime += c.Duration
}

func (s *Subscription) noteSkipped() {
	s.mu.Lock()
	s.stats.Skipped++
	s.mu.Unlock()
}

// queueLocked appends a delta, composing the whole queue into one
// cumulative delta when a slow consumer has let it reach the
// monitor's MaxPending bound. Composition preserves the replay
// invariant — the merged delta's effect is the queue's net effect —
// so back-pressure degrades granularity, never correctness.
func (s *Subscription) queueLocked(d Delta) {
	if max := s.m.cfg.MaxPending; max > 0 && len(s.pending) >= max {
		merged := s.pending[0]
		for _, q := range s.pending[1:] {
			merged = compose(merged, q)
		}
		merged = compose(merged, d)
		s.pending = append(s.pending[:0], merged)
		s.stats.Coalesced++
		s.m.coalesced.Add(1)
	} else {
		s.pending = append(s.pending, d)
	}
	s.stats.Deltas++
	if s.feed != nil {
		s.feed.dirty.Store(true)
	}
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// close marks the subscription closed and wakes its feed, if any; the
// monitor calls it with the registry already updated.
func (s *Subscription) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	f := s.feed
	s.mu.Unlock()
	close(s.closedCh)
	if f != nil {
		f.signal()
	}
}
