// Package repro is a Go reproduction of "Efficient Evaluation of
// Imprecise Location-Dependent Queries" (Jinchuan Chen and Reynold
// Cheng, ICDE 2007): range queries issued from an uncertain location
// over databases of exact points and uncertain objects, returning
// probabilistic guarantees.
//
// # The Request model
//
// The engine's query surface is one value type and one entry point:
// a Request describes any evaluation — its Kind (KindUncertain,
// KindPoints, or KindNN), issuer, constraint, EvalOptions, and
// reproducibility Seed — and
// Evaluate(ctx, req) runs it, returning a Response (the Result plus
// the kind and the engine version observed). Evaluate is defined on
// *Snapshot, so every evaluation observes exactly one pinned MVCC
// version; Engine.Evaluate is the one-shot pin-evaluate-release
// wrapper. EvaluateAll(ctx, reqs, opts, fn) is the single fan-out
// form: requests run opts.Workers at a time against one pinned
// version, each refining on its own goroutine with an independent
// deterministic sampling seed, and
// responses stream to the handler in completion order with
// per-request deadlines and whole-batch cancellation. Malformed
// requests return a typed *RequestError naming the offending field.
//
//	issuerPDF, _ := repro.NewUniformPDF(repro.RectCentered(repro.Pt(5200, 4800), 250, 250))
//	issuer, _ := repro.NewIssuer(issuerPDF)
//	engine, _ := repro.NewEngine(points, objects, repro.EngineOptions{})
//	resp, _ := engine.Evaluate(ctx, repro.RequestUncertain(issuer, 500, 500, 0.5))
//	for _, m := range resp.Matches {
//		fmt.Printf("object %d qualifies with probability %.3f\n", m.ID, m.P)
//	}
//
// Nearest neighbor is a first-class kind: RequestNN(issuer, k)
// returns the k most probable nearest neighbors of the imprecise
// issuer among the point objects (the paper's §7 future-work
// extension). Candidates are pruned by branch-and-bound over the
// engine's point R-tree — node accesses recorded in Cost like every
// other kind — and refined against one deterministic Monte-Carlo
// stream of issuer positions shared by every candidate, so results are
// reproducible for a fixed seed and consistent under concurrent
// ingestion.
//
// The pre-Request methods (EvaluatePoints, EvaluateUncertain, their
// Context variants, EvaluateUncertainParallel, EvaluateBatch,
// EvaluateBatchStream, and EvaluateUncertainBatch) were removed after
// one deprecation cycle; the README's migration table maps each to
// its Request equivalent, bit-identical results included.
//
// # What the package provides
//
//   - building location pdfs (uniform, truncated Gaussian, histogram
//     grids, mixtures) and uncertain objects with U-catalogs;
//   - constructing an Engine over point and uncertain-object datasets
//     (bulk-loaded R-tree and Probability Threshold Index);
//   - evaluating IPQ, IUQ, C-IPQ and C-IUQ requests with the paper's
//     query expansion, query-data duality, and threshold pruning;
//   - adaptive refinement: Monte-Carlo refinement of threshold
//     requests early-terminates per candidate once a Hoeffding /
//     empirical Bernstein bound has decided it against the threshold
//     (Cost.SamplesUsed, Cost.EarlyStopped; ObjectEvalConfig.Adaptive);
//   - concurrent serving: any number of goroutines may Evaluate
//     simultaneously — over in-memory or paged storage (4 KiB node
//     pages behind a CLOCK buffer pool that counts the paper's I/O) —
//     each response carrying its own exact per-request Cost;
//   - dynamic updates concurrent with queries, under MVCC snapshot
//     isolation: every evaluation pins the immutable engine state
//     current when it starts and runs lock-free against it, while
//     mutators build the next state copy-on-write and publish it
//     atomically — Engine.ApplyUpdates never waits for evaluations
//     and vice versa. Engine.Snapshot pins one version across many
//     evaluations (Snapshot.Close releases it);
//   - continuous monitoring: Monitor serves standing Requests over
//     the update stream. Register(req) returns a Subscription
//     streaming delta results; ApplyUpdates wakes only the standing
//     requests whose guard region (Request.GuardRegion) a change of
//     their own table touches, and for range requests re-qualifies
//     only the objects that moved;
//   - the imprecise nearest-neighbor extension as a first-class
//     request kind;
//   - synthetic dataset generation matching the paper's experimental
//     setup.
//
// Serving architecture: one-shot requests call Evaluate; batch
// workloads go through EvaluateAll; standing workloads register with
// a Monitor and consume deltas. The cmd/ildq-serve binary exposes all
// three over HTTP/JSON — the wire format is a direct encoding of
// Request/Response (POST /v1/evaluate, POST /v1/queries + GET
// /v1/queries/{id}/stream as server-sent events, POST /v1/updates,
// GET /metrics); see its package documentation for a curl quickstart.
//
// The public API surface is checked into api/repro.txt; `make
// apicheck` fails when it drifts, so surface growth is a reviewed
// decision.
//
// See examples/ for runnable programs and README.md's repository map
// for what each package holds.
package repro
