// Package monitor serves standing (continuous) imprecise
// location-dependent queries over a core.Engine under a stream of
// moving-object updates — the workload the paper's introduction
// motivates: vehicles continuously re-report imprecise positions
// while registered queries must keep their answers fresh.
//
// A Monitor owns a registry of standing requests: a Subscription is
// exactly a standing core.Request, so anything the engine evaluates —
// range queries over points or uncertain objects, nearest neighbor —
// can stand. Register evaluates the request once, caches its
// qualifying set, and returns a Subscription whose Next method yields
// Deltas — the objects entering and leaving the qualifying set (and
// probability changes of objects staying) since the previous delta.
// ApplyUpdates ingests a batch of updates through the engine's write
// path and then does work in proportion to what the batch moved, not
// to what is standing, in three steps.
//
// Guard filter. The engine reports a batch as typed change records
// (core.Change: table, id, old rectangle, new rectangle). A request
// reads one table (core.Kind.Table), and only ever considers objects
// whose bounds intersect its guard region (core.Request.GuardRegion):
// the index probe region — the Minkowski sum R⊕U0, shrunk to the
// Qp-expanded region for threshold queries; for nearest-neighbor
// requests the tau-ball around the issuer that the last evaluation
// measured. A batch none of whose changes of that table has an old or
// new rectangle intersecting the guard provably leaves the answer
// unchanged: the cached set stays valid and no evaluation work is
// spent. Changes of the other table never wake a request, failed
// updates leave no change record, and Stats.Skipped counts the
// avoided work; under localized update traffic it dominates.
//
// Per-object maintenance. The qualification probability of an object
// depends only on that object's pdf and the issuer's — the fact
// behind the paper's query–data duality and per-object p-bound
// pruning — so an object that did not move cannot change its
// probability. For a decomposable request (core.Request.Decomposable:
// the range kinds under the enhanced method) the monitor therefore
// re-qualifies exactly the objects whose change records touch the
// guard, against the post-batch snapshot (core.Snapshot.EvaluateOnly
// — the full evaluation's per-candidate kernel run over an id set,
// without an index probe), and patches the cached set: gone or no
// longer qualifying → Left, newly qualifying → Entered, a different
// probability → Updated. An id updated several times in one batch is
// re-qualified once, in its final state.
//
// Full fallback. What is not decomposable is re-evaluated from
// scratch when touched — standing NN (win probabilities are coupled
// across candidates) and MethodBasic (all candidates share one sample
// stream) — and so is any subscription whose last evaluation failed
// (deadline, sample budget, cancelled pass): its cache no longer
// reflects a known state, so the next batch recomputes it
// unconditionally. Full re-evaluations go through the engine's one
// fan-out form (core.Snapshot.EvaluateAll) over Config.Workers.
// Options.Timeout and Options.MaxSamples bound each evaluation, full
// or per-object, and surface as Delta.Err without disturbing the
// cached set.
//
// Subscription seed. Sampling is a property of the subscription, not
// of the pass: a non-zero Request.Seed given to Register is kept,
// otherwise the seed is mixSeed(Config.Seed, subscription id), and
// Subscription.Request returns the request with it. Every evaluation
// of the subscription — registration, per-object, full — derives each
// candidate's sample stream from that seed and the object id, so a
// Monte-Carlo-refined object that did not move keeps its probability
// bit for bit and never appears in a delta, and a patched set is
// indistinguishable from a recomputed one.
//
// Feeds. A consumer of many subscriptions — a server writing all of a
// fleet router's deltas to one connection — attaches them to one Feed
// (Monitor.NewFeed, Subscription.Attach) and drains each with
// Subscription.Poll whenever the feed is signalled: once per pass that
// queued a delta on any of them, not once per delta.
//
// Replay invariant. Each ingestion pass evaluates against the
// post-batch MVCC snapshot, pinned atomically with the batch commit
// (core.Engine.ApplyUpdatesSnapshot). Every delta therefore reflects
// exactly the engine version its batch report records — neither
// later monitor batches nor direct engine mutations bypassing the
// monitor can leak into a pass — and however long a pass runs, it
// never blocks concurrent ingestion. A delta stream, replayed in
// order (delete Left, then upsert Entered and Updated), reconstructs
// after every batch the qualifying set that
// Evaluate(Subscription.Request()) reports on the pinned post-batch
// state, Float64bits-equal, for closed-form and Monte-Carlo
// refinement alike — coalescing (the back-pressure response for slow
// consumers) composes deltas and preserves this invariant.
package monitor
