package monitor

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mcbound"
	"repro/internal/uncertain"
)

// Config tunes a Monitor.
type Config struct {
	// Workers is the fan-out of a batch's full re-evaluations (the
	// worker count handed to EvaluateAll; default 1). Per-object
	// re-qualification is a handful of candidates per subscription and
	// runs on the ingesting goroutine.
	Workers int
	// Options are the default evaluation options, applied to standing
	// requests registered with a zero Options field; a request
	// carrying its own Options keeps them. Sampling is driven by the
	// subscription's seed alone (see Seed). Timeout and MaxSamples act
	// per re-evaluation — full or per-object, bounding the work that
	// evaluation does — surfacing as Delta.Err without disturbing the
	// cached set.
	Options core.EvalOptions
	// Seed derives the sampling seed of every subscription registered
	// without one (default 1): mixSeed(Seed, subscription id). A
	// subscription's seed is fixed for its lifetime — every evaluation
	// of it, at registration and after any batch, draws each
	// candidate's samples from the stream that seed and the object id
	// determine — so a fixed engine, registration order, and update
	// trace replay the same delta streams, and an object that did not
	// move keeps its probability bit for bit.
	Seed int64
	// MaxPending bounds each subscription's queued deltas. When a
	// slow consumer lets the queue reach the bound, the queue is
	// composed into one cumulative delta (replay-equivalent, coarser
	// granularity) instead of growing without limit. Default 64;
	// negative means unbounded.
	MaxPending int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxPending == 0 {
		c.MaxPending = 64
	}
	return c
}

// Stats are a monitor's lifetime counters.
type Stats struct {
	// Registered is the number of live standing queries.
	Registered int
	// Batches and UpdatesApplied count ingested update batches and
	// the updates they committed.
	Batches        int64
	UpdatesApplied int64
	// Reevaluated and Skipped partition standing-query × batch pairs:
	// Skipped counts the pairs the guard-region filter proved
	// unaffected, Reevaluated those it woke. FullReevals counts the
	// woken pairs answered by a complete evaluation (NN, MethodBasic,
	// stale subscriptions); the rest were maintained per object, and
	// Requalified counts the objects that took.
	Reevaluated int64
	Skipped     int64
	FullReevals int64
	Requalified int64
	// Deltas counts deltas queued across all subscriptions, Coalesced
	// the queue compositions forced by slow consumers, EvalErrors the
	// re-evaluations that failed (deadline, sample budget).
	Deltas     int64
	Coalesced  int64
	EvalErrors int64
}

// BatchOutcome reports what one ApplyUpdates call did.
type BatchOutcome struct {
	// Report is the engine's ingestion report (applied counts, dirty
	// regions, version).
	Report core.UpdateReport
	// Seq is the batch sequence number carried by the deltas it
	// produced.
	Seq uint64
	// Reevaluated and Skipped count standing queries whose guard
	// region a change of their own table touched (answer brought up to
	// date) versus not (cached set kept). FullReevals of the
	// Reevaluated ran a complete evaluation; the others re-qualified
	// only the touching objects, Requalified in total.
	Reevaluated int
	Skipped     int
	FullReevals int
	Requalified int
	// Entered, Left, and Changed aggregate the delta sizes across the
	// re-evaluated queries.
	Entered, Left, Changed int
}

// Monitor serves standing queries over an engine under a stream of
// updates. All methods are safe for concurrent use; ApplyUpdates
// calls serialize with each other (batches are totally ordered by
// Seq) and with Register.
type Monitor struct {
	eng *core.Engine
	cfg Config

	// ingestMu serializes update batches (and initial evaluations)
	// so every subscription sees a totally ordered stream of states.
	ingestMu sync.Mutex
	seq      uint64

	mu   sync.RWMutex
	subs map[int64]*Subscription
	// ordered lists the live subscriptions by ascending id. It is
	// replaced, never modified, on Register and Unregister, so a batch
	// walks the slice it loaded without copying or sorting.
	ordered []*Subscription
	nextID  int64
	// feeds lists the open feeds, replaced like ordered (see feed.go).
	feeds []*Feed

	// changes and ids are per-batch scratch, reused under ingestMu.
	changes []core.Change
	ids     []uncertain.ID

	batches, updates, reeval, skipped atomic.Int64
	fullReevals, requalified          atomic.Int64
	deltas, coalesced, evalErrors     atomic.Int64

	// met holds the per-batch histograms (see metrics.go); always live.
	met *monMetrics
}

// New builds a monitor over the engine. The engine may keep serving
// one-shot queries and direct updates concurrently; only updates
// ingested through Monitor.ApplyUpdates drive the standing queries'
// delta streams.
func New(eng *core.Engine, cfg Config) *Monitor {
	return &Monitor{
		eng:  eng,
		cfg:  cfg.withDefaults(),
		subs: make(map[int64]*Subscription),
		met:  newMonMetrics(),
	}
}

// Engine returns the engine the monitor serves.
func (m *Monitor) Engine() *core.Engine { return m.eng }

// mixSeed folds the given values into one derived seed. The monitor
// only mixes the seed a subscription hands to its evaluations; the
// engine derives its per-candidate streams from that
// (mcbound.DeriveSeed).
func mixSeed(vals ...int64) int64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		h = mcbound.SplitMix64(h ^ mcbound.SplitMix64(uint64(v)))
	}
	return int64(h)
}

// Register adds a standing request, evaluates it once, and returns
// its subscription. A subscription is exactly a standing core.Request
// — any kind the engine evaluates, nearest neighbor included, can
// stand. The subscription's first delta is the registration snapshot
// (every current match in Entered), so replaying the stream from an
// empty set always reconstructs the live answer. Registration
// serializes with ApplyUpdates: the snapshot reflects a batch
// boundary, never a half-applied batch.
func (m *Monitor) Register(req core.Request) (*Subscription, error) {
	if req.Options == (core.EvalOptions{}) {
		req.Options = m.cfg.Options
	}
	guard, err := req.GuardRegion()
	if err != nil {
		return nil, err
	}

	m.ingestMu.Lock()
	defer m.ingestMu.Unlock()

	m.mu.Lock()
	m.nextID++
	id := m.nextID
	m.mu.Unlock()

	// The seed is the subscription's from here on: a per-object
	// re-qualification must land on the probability a from-scratch
	// evaluation of the same request computes.
	if req.Seed == 0 {
		req.Seed = mixSeed(m.cfg.Seed, id)
	}
	// The initial evaluation runs against a pinned snapshot so the
	// registration answer reflects exactly one engine version even if
	// direct (non-monitor) updates commit concurrently.
	snap := m.eng.Snapshot()
	resp, err := snap.Evaluate(context.Background(), req)
	snap.Close()
	if err != nil {
		return nil, err
	}
	res := resp.Result

	sub := &Subscription{
		id:       id,
		req:      req,
		guard:    guard,
		m:        m,
		current:  make(map[uncertain.ID]float64, len(res.Matches)),
		notify:   make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
	// The initial evaluation measured tau, so an NN subscription can
	// start with its finite tau-ball guard instead of re-evaluating on
	// every batch until the first hit.
	sub.updateGuardLocked(res)
	sub.stats.Reevals = 1
	sub.noteCostLocked(res.Cost)
	d := Delta{Seq: m.seq, Version: resp.Version, Entered: res.Matches, Cost: res.Cost, Coalesced: 1}
	for _, match := range res.Matches {
		sub.current[match.ID] = match.P
	}
	sub.pending = append(sub.pending, d)
	sub.stats.Deltas = 1
	m.deltas.Add(1)

	m.mu.Lock()
	m.subs[id] = sub
	// Ids only grow, so appending keeps the order; the clone leaves the
	// slice a concurrent batch may be walking untouched.
	m.ordered = append(slices.Clone(m.ordered), sub)
	m.mu.Unlock()
	return sub, nil
}

// Unregister removes the standing query with the given id, reporting
// whether it existed. Its subscription's queued deltas stay drainable;
// Next reports ErrClosed once they are gone.
func (m *Monitor) Unregister(id int64) bool {
	m.mu.Lock()
	sub, ok := m.subs[id]
	if ok {
		delete(m.subs, id)
		i, _ := slices.BinarySearchFunc(m.ordered, id, func(s *Subscription, id int64) int { return cmp.Compare(s.id, id) })
		m.ordered = slices.Delete(slices.Clone(m.ordered), i, i+1)
	}
	m.mu.Unlock()
	if ok {
		sub.close()
	}
	return ok
}

// liveSubs returns the live subscriptions ordered by id — the
// deterministic order batches are delivered in. The slice is shared
// and immutable.
func (m *Monitor) liveSubs() []*Subscription {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ordered
}

// Subscriptions returns the live subscriptions ordered by id (for
// metrics and introspection).
func (m *Monitor) Subscriptions() []*Subscription { return slices.Clone(m.liveSubs()) }

// Subscription returns the live subscription with the given id.
func (m *Monitor) Subscription(id int64) (*Subscription, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.subs[id]
	return s, ok
}

// ApplyUpdates ingests one update batch: it applies the batch to the
// engine (atomically with respect to queries — see
// core.Engine.ApplyUpdates), then brings every standing query the
// batch can have affected up to date, streaming each one's delta to
// its subscription. Three outcomes per subscription, cheapest first:
//
//   - Skipped: no applied change of the subscription's own table
//     (core.Kind.Table) has an old or new rectangle intersecting its
//     guard region. The cached set stays valid at zero cost.
//   - Re-qualified per object: a Decomposable request (enhanced range
//     kinds) whose guard some changes touch. Only those objects can
//     have changed — an object's qualification probability depends on
//     that object and the issuer alone — so exactly they are
//     re-qualified against the post-batch snapshot
//     (core.Snapshot.EvaluateOnly) and the cached set is patched: gone
//     or no longer qualifying → Left, newly qualifying → Entered, a
//     different probability → Updated. An id the batch updated more
//     than once is re-qualified once, in its final state.
//   - Fully re-evaluated: what is not decomposable — NN, MethodBasic —
//     when touched, and any stale subscription (its last evaluation
//     failed, so the cache no longer reflects a known state)
//     unconditionally. These go through the engine's one fan-out form,
//     Snapshot.EvaluateAll, Config.Workers wide.
//
// Every evaluation of a subscription uses the subscription's own seed
// (Subscription.Request().Seed), which is what makes a patched set
// equal a from-scratch evaluation bit for bit. All of it runs against
// the post-batch snapshot, pinned atomically with the commit
// (core.Engine.ApplyUpdatesSnapshot). Every delta of sequence Seq
// therefore reflects exactly the engine version its report records:
// updates committing concurrently — further monitor batches queued
// behind ingestMu, or direct engine mutations bypassing the monitor —
// cannot leak into the pass, which is what keeps delta replay
// bit-exact against Engine.Version. The snapshot also means the pass
// never blocks those concurrent writers, however long it runs.
//
// ctx cancels the pass (not the already-committed engine batch); every
// woken subscription still receives a delta — an error delta if its
// evaluation did not finish — and the error is returned after every
// in-flight query settles.
func (m *Monitor) ApplyUpdates(ctx context.Context, batch []core.Update) (BatchOutcome, error) {
	m.ingestMu.Lock()
	defer m.ingestMu.Unlock()

	batchStart := time.Now()
	out := BatchOutcome{}
	defer func() { m.met.observeBatch(time.Since(batchStart), out) }()
	// Every delta of the pass is queued before any feed is signalled, so
	// a feed's consumer finds the whole pass in one drain.
	defer m.wakeFeeds()

	rep, snap := m.eng.ApplyUpdatesSnapshot(batch)
	defer snap.Close()
	m.seq++
	out = BatchOutcome{Report: rep, Seq: m.seq}
	m.batches.Add(1)
	m.updates.Add(int64(rep.Applied))

	// Sorted by (table, id), a subscription's scan meets the records of
	// one id back to back and keeps the first.
	m.changes = append(m.changes[:0], rep.Changes...)
	slices.SortFunc(m.changes, func(a, b core.Change) int {
		return cmp.Or(cmp.Compare(a.Table, b.Table), cmp.Compare(a.ID, b.ID))
	})

	seq, version := m.seq, snap.Version()
	count := func(d Delta) {
		out.Entered += len(d.Entered)
		out.Left += len(d.Left)
		out.Changed += len(d.Updated)
		m.deltas.Add(1)
	}
	fail := func(sub *Subscription, err error, cost core.Cost) {
		sub.applyError(seq, version, err, cost)
		m.evalErrors.Add(1)
		m.deltas.Add(1)
	}

	var passErr error
	var full []*Subscription
	subs := m.liveSubs()
	for _, sub := range subs {
		ids, needFull := sub.touched(m.changes, m.ids[:0])
		m.ids = ids
		switch {
		case needFull:
			full = append(full, sub)
		case len(ids) == 0:
			sub.noteSkipped()
			out.Skipped++
		default:
			out.Requalified += len(ids)
			resp, err := snap.EvaluateOnly(ctx, sub.req, ids)
			if err != nil {
				fail(sub, err, resp.Cost)
				if ctx.Err() != nil {
					passErr = ctx.Err()
				}
			} else if d, ok := sub.applyPartial(seq, version, ids, resp.Result); ok {
				count(d)
			}
		}
	}
	out.FullReevals = len(full)
	out.Reevaluated = len(subs) - out.Skipped
	m.reeval.Add(int64(out.Reevaluated))
	m.skipped.Add(int64(out.Skipped))
	m.fullReevals.Add(int64(out.FullReevals))
	m.requalified.Add(int64(out.Requalified))
	if len(full) == 0 {
		return out, passErr
	}

	reqs := make([]core.Request, len(full))
	for i, sub := range full {
		reqs[i] = sub.req
	}
	delivered := make([]bool, len(full))
	err := snap.EvaluateAll(ctx, reqs, core.AllOptions{Workers: m.cfg.Workers}, func(i int, resp core.Response, rerr error) {
		delivered[i] = true
		if rerr != nil {
			fail(full[i], rerr, resp.Cost)
		} else if d, ok := full[i].applyResult(seq, version, resp.Result); ok {
			count(d)
		}
	})
	if err != nil {
		// The engine batch is already committed; a cancelled pass
		// must not leave any touched subscription silently stale.
		// Queries the stream never dispatched get an error delta so
		// their consumers see the staleness signal.
		for i, sub := range full {
			if !delivered[i] {
				fail(sub, err, core.Cost{})
			}
		}
		passErr = err
	}
	return out, passErr
}

// Stats returns the monitor's counters.
func (m *Monitor) Stats() Stats {
	m.mu.RLock()
	registered := len(m.subs)
	m.mu.RUnlock()
	return Stats{
		Registered:     registered,
		Batches:        m.batches.Load(),
		UpdatesApplied: m.updates.Load(),
		Reevaluated:    m.reeval.Load(),
		Skipped:        m.skipped.Load(),
		FullReevals:    m.fullReevals.Load(),
		Requalified:    m.requalified.Load(),
		Deltas:         m.deltas.Load(),
		Coalesced:      m.coalesced.Load(),
		EvalErrors:     m.evalErrors.Load(),
	}
}
