package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// makeUpdateBatch builds a batch of uncertain-object re-reports
// (bounded random walks), the monitor workload's shape.
func makeUpdateBatch(t testing.TB, e *Engine, rng *rand.Rand, size int) []Update {
	t.Helper()
	n := e.NumUncertain()
	batch := make([]Update, size)
	for j := range batch {
		id := uncertain.ID(rng.Intn(n))
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if obj, ok := e.Object(id); ok {
			r := obj.Region()
			c = geom.Pt(r.Center().X+(rng.Float64()-0.5)*20, r.Center().Y+(rng.Float64()-0.5)*20)
		}
		o, err := uncertain.NewObject(id, pdf.MustUniform(geom.RectCentered(c, 5+rng.Float64()*10, 5+rng.Float64()*10)),
			uncertain.PaperCatalogProbs())
		if err != nil {
			t.Fatal(err)
		}
		batch[j] = Update{Op: OpUpsertObject, Object: o}
	}
	return batch
}

// TestSnapshotOverlapFlood is the MVCC acceptance test: a
// deliberately slow evaluation (forced Monte-Carlo with a large
// budget, bounded by MaxSamples) pinned to one snapshot overlaps a
// flood of ApplyUpdates batches. It asserts (a) the evaluation's
// result is bit-identical to a from-scratch run against its pinned
// version, however many batches committed meanwhile, and (b) writer
// latency stays bounded — no batch ever waits for the in-flight
// reader. Run under -race by the CI soak job.
func TestSnapshotOverlapFlood(t *testing.T) {
	e := testWorld(t, 0, 4000, 42)
	q := Query{Issuer: testIssuer(t, geom.Pt(500, 500), 60), W: 80, H: 80, Threshold: 0.3}

	// Slow evaluation: forced Monte-Carlo, big per-candidate budget,
	// no adaptive early stop; MaxSamples bounds the total so a
	// misconfigured workload cannot hang the test.
	slowOpts := func() EvalOptions {
		return EvalOptions{
			Object: ObjectEvalConfig{
				ForceMonteCarlo: true,
				MCSamples:       60_000,
				Adaptive:        AdaptiveOff,
			},
			MaxSamples: 1 << 40,
		}
	}

	snap := e.Snapshot()
	defer snap.Close()
	v0 := snap.Version()

	var evalDone atomic.Bool
	type evalOut struct {
		res Result
		err error
	}
	resCh := make(chan evalOut, 1)
	go func() {
		r, err := snap.EvaluateUncertain(q, slowOpts())
		evalDone.Store(true)
		resCh <- evalOut{r, err}
	}()

	// Flood: many small batches. Every one must commit promptly even
	// though the slow evaluation holds the pinned snapshot the whole
	// time. Under the old reader–writer lock the first batch would
	// stall for the full evaluation.
	const batches = 64
	rng := rand.New(rand.NewSource(7))
	var maxBatch time.Duration
	for i := 0; i < batches; i++ {
		batch := makeUpdateBatch(t, e, rng, 16)
		start := time.Now()
		rep := e.ApplyUpdates(batch)
		if d := time.Since(start); d > maxBatch {
			maxBatch = d
		}
		if len(rep.Errors) > 0 {
			t.Fatalf("batch %d: %v", i, rep.Errors[0])
		}
	}
	floodDoneBeforeEval := !evalDone.Load()

	if e.Version() != v0+batches {
		t.Fatalf("version advanced to %d, want %d", e.Version(), v0+batches)
	}
	// Generous bound: one batch of 16 re-reports takes well under a
	// millisecond of copy-on-write work; a reader-induced stall would
	// be the whole multi-second evaluation.
	if maxBatch > 2*time.Second {
		t.Fatalf("a batch took %v — writer blocked on the in-flight evaluation", maxBatch)
	}

	out := <-resCh
	if out.err != nil {
		t.Fatalf("slow evaluation: %v", out.err)
	}
	if !floodDoneBeforeEval {
		t.Logf("note: flood finished after the evaluation; latency bound still held (max batch %v)", maxBatch)
	}

	// From-scratch run against the still-pinned snapshot: bit-exact,
	// no matter that 64 batches rewrote the engine meanwhile.
	again, err := snap.EvaluateUncertain(q, slowOpts())
	if err != nil {
		t.Fatalf("pinned re-run: %v", err)
	}
	if snap.Version() != v0 {
		t.Fatalf("pinned snapshot version drifted: %d -> %d", v0, snap.Version())
	}
	if len(again.Matches) != len(out.res.Matches) {
		t.Fatalf("pinned re-run: %d matches, want %d", len(again.Matches), len(out.res.Matches))
	}
	for i := range again.Matches {
		if again.Matches[i] != out.res.Matches[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, again.Matches[i], out.res.Matches[i])
		}
	}
	if again.Cost.SamplesUsed != out.res.Cost.SamplesUsed {
		t.Fatalf("pinned re-run drew %d samples, overlap run %d", again.Cost.SamplesUsed, out.res.Cost.SamplesUsed)
	}
}

// TestSnapshotIsolation checks the core visibility rules: a snapshot
// observes exactly its version's contents; the engine's entry points
// observe the newest published state; reclamation waits for the last
// pin.
func TestSnapshotIsolation(t *testing.T) {
	e := testWorld(t, 200, 200, 3)
	q := Query{Issuer: testIssuer(t, geom.Pt(500, 500), 40), W: 120, H: 120}

	snap := e.Snapshot()
	defer snap.Close()
	before, err := snap.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Delete every current match.
	var batch []Update
	for _, m := range before.Matches {
		batch = append(batch, Update{Op: OpDeleteObject, ID: m.ID})
	}
	rep := e.ApplyUpdates(batch)
	if rep.Applied != len(batch) {
		t.Fatalf("applied %d of %d", rep.Applied, len(batch))
	}

	// The pinned snapshot still sees them...
	pinned, err := snap.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned.Matches) != len(before.Matches) {
		t.Fatalf("pinned snapshot lost matches: %d -> %d", len(before.Matches), len(pinned.Matches))
	}
	if _, ok := snap.Object(before.Matches[0].ID); !ok {
		t.Fatal("pinned snapshot lost a deleted object")
	}
	if snap.NumUncertain() != 200 {
		t.Fatalf("pinned snapshot count %d, want 200", snap.NumUncertain())
	}

	// ...while the engine does not.
	after, err := e.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Matches) != 0 {
		t.Fatalf("live engine still reports %d matches after deleting them", len(after.Matches))
	}
	if _, ok := e.Object(before.Matches[0].ID); ok {
		t.Fatal("live engine still has deleted object")
	}
	if e.NumUncertain() != 200-len(batch) {
		t.Fatalf("live count %d, want %d", e.NumUncertain(), 200-len(batch))
	}

	// Garbage is retained while the snapshot is pinned, and swept once
	// it closes.
	if st := e.SnapshotStats(); st.RetiredNodes == 0 {
		t.Fatal("expected retained retired nodes while snapshot pinned")
	} else if st.VersionLag == 0 {
		t.Fatal("expected version lag while old snapshot pinned")
	}
	snap.Close()
	if st := e.SnapshotStats(); st.RetiredNodes != 0 {
		t.Fatalf("retired nodes not reclaimed after close: %+v", st)
	}

	// Closed snapshots refuse evaluation, idempotently.
	snap.Close()
	if _, err := snap.EvaluateUncertain(q, EvalOptions{}); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("closed snapshot evaluation: %v", err)
	}
}

// TestSnapshotBatchConsistency: a snapshot's EvaluateAll fan-out
// observes one version for all its requests.
func TestSnapshotBatchConsistency(t *testing.T) {
	e := testWorld(t, 100, 100, 9)
	snap := e.Snapshot()
	defer snap.Close()

	// Mutate heavily after pinning.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		e.ApplyUpdates(makeUpdateBatch(t, e, rng, 8))
	}

	q := Query{Issuer: testIssuer(t, geom.Pt(500, 500), 50), W: 150, H: 150}
	req := requestFor(KindUncertain, q, EvalOptions{})
	reqs := []Request{req, req, req}
	out, errs := collectAll(t, snap.EvaluateAll, reqs, AllOptions{Workers: 2})
	live, _ := collectAll(t, e.EvaluateAll, reqs, AllOptions{Workers: 2})
	for i := 1; i < len(out); i++ {
		if errs[i] != nil || errs[0] != nil {
			t.Fatalf("fan-out errs: %v %v", errs[0], errs[i])
		}
		if len(out[i].Matches) != len(out[0].Matches) {
			t.Fatalf("snapshot fan-out inconsistent: %d vs %d matches", len(out[i].Matches), len(out[0].Matches))
		}
	}
	// The snapshot's answer is the pre-update world; the live fan-out
	// sees the post-update world (almost surely different here).
	if len(out[0].Matches) == len(live[0].Matches) {
		sameAll := true
		for i, m := range out[0].Matches {
			if live[0].Matches[i] != m {
				sameAll = false
				break
			}
		}
		if sameAll {
			t.Log("note: updates did not change this query's answer (unlikely but legal)")
		}
	}
}

// TestTableLoader holds the checkpoint loader to put: rows in a table's
// own Range order fill every bucket with one exactly-sized slice, rows
// in any other order — a table written with twice the buckets, or
// shuffled — build the same table through put, and a repeated id is
// refused either way.
func TestTableLoader(t *testing.T) {
	const n = 5000
	want := newCowTable[int](n)
	for i := range n {
		want.put(uncertain.ID(i*7), i)
	}
	var ordered []tabEntry[int]
	want.Range(func(id uncertain.ID, v int) bool {
		ordered = append(ordered, tabEntry[int]{id, v})
		return true
	})
	wider := newCowTableBuckets[int](2 * want.numBuckets())
	for _, e := range ordered {
		wider.put(e.id, e.val)
	}
	var widerOrder []tabEntry[int]
	wider.Range(func(id uncertain.ID, v int) bool {
		widerOrder = append(widerOrder, tabEntry[int]{id, v})
		return true
	})
	shuffled := slices.Clone(ordered)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	load := func(rows []tabEntry[int]) (*cowTable[int], error) {
		l := tableLoader[int]{tab: newCowTable[int](len(rows)), what: "row"}
		for _, e := range rows {
			if err := l.add(e.id, e.val); err != nil {
				return nil, err
			}
		}
		return l.done()
	}
	for name, rows := range map[string][]tabEntry[int]{"own order": ordered, "twice the buckets": widerOrder, "shuffled": shuffled} {
		got, err := load(rows)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != n || got.numBuckets() != want.numBuckets() {
			t.Fatalf("%s: %d rows in %d buckets, want %d in %d", name, got.Len(), got.numBuckets(), n, want.numBuckets())
		}
		for b := range got.numBuckets() {
			gb, wb := got.bucket(b), want.bucket(b)
			if !slices.Equal(gb, wb) || cap(gb) != len(gb) {
				t.Fatalf("%s: bucket %d holds %v (cap %d), want %v", name, b, gb, cap(gb), wb)
			}
		}
		for _, at := range []int{0, len(rows) / 2, len(rows) - 1} {
			dup := slices.Insert(slices.Clone(rows), at+1, rows[at])
			if _, err := load(dup); !errors.Is(err, errInconsistentCheckpoint) {
				t.Fatalf("%s: row %d repeated: err = %v", name, at, err)
			}
		}
	}
}

// TestCowTableTxn exercises the persistent table: txn isolation,
// bucket sharing, and delete/put round trips.
func TestCowTableTxn(t *testing.T) {
	tab := newCowTable[int](100)
	for i := 0; i < 100; i++ {
		tab.put(uncertain.ID(i), i)
	}
	tx := newTableTxn(tab)
	for i := 0; i < 50; i++ {
		tx.Put(uncertain.ID(i), i*10)
	}
	for i := 90; i < 100; i++ {
		if !tx.Delete(uncertain.ID(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	tx.Put(uncertain.ID(1000), 1000)
	next := tx.Commit()

	// Base unchanged.
	if tab.Len() != 100 {
		t.Fatalf("base len %d", tab.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := tab.Get(uncertain.ID(i))
		if !ok || v != i {
			t.Fatalf("base[%d] = %d, %t", i, v, ok)
		}
	}
	if _, ok := tab.Get(1000); ok {
		t.Fatal("base sees txn insert")
	}
	// Next sees the new world.
	if next.Len() != 91 {
		t.Fatalf("next len %d, want 91", next.Len())
	}
	for i := 0; i < 50; i++ {
		if v, _ := next.Get(uncertain.ID(i)); v != i*10 {
			t.Fatalf("next[%d] = %d", i, v)
		}
	}
	for i := 90; i < 100; i++ {
		if _, ok := next.Get(uncertain.ID(i)); ok {
			t.Fatalf("next still has %d", i)
		}
	}
	if v, ok := next.Get(1000); !ok || v != 1000 {
		t.Fatal("next missing txn insert")
	}
	count := 0
	next.Range(func(uncertain.ID, int) bool { count++; return true })
	if count != next.Len() {
		t.Fatalf("Range visited %d, len %d", count, next.Len())
	}
}

// TestBasicMethodAdaptive: the §3.3 issuer-sampling loops support the
// same early termination as every other refinement path — fewer
// samples on clear-cut candidates, decisions preserved.
func TestBasicMethodAdaptive(t *testing.T) {
	e := testWorld(t, 400, 400, 21)
	iss := testIssuer(t, geom.Pt(500, 500), 30)

	for _, kind := range []Kind{KindUncertain, KindPoints} {
		q := Query{Issuer: iss, W: 100, H: 100, Threshold: 0.5}
		run := func(mode AdaptiveMode) Result {
			opts := EvalOptions{
				Method:       MethodBasic,
				BasicSamples: 4096,
				Object:       ObjectEvalConfig{Adaptive: mode},
			}
			req := requestFor(kind, q, opts)
			req.Seed = 17
			resp, err := e.Evaluate(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			return resp.Result
		}
		full := run(AdaptiveOff)
		adpt := run(AdaptiveAuto)

		if full.Cost.EarlyStopped != 0 {
			t.Fatalf("%v: AdaptiveOff recorded %d early stops", kind, full.Cost.EarlyStopped)
		}
		if full.Cost.SamplesUsed != int64(full.Cost.Refined)*4096 {
			t.Fatalf("%v: full budget drew %d samples for %d refined", kind, full.Cost.SamplesUsed, full.Cost.Refined)
		}
		if adpt.Cost.Refined == 0 {
			t.Fatalf("%v: workload refined nothing", kind)
		}
		if adpt.Cost.EarlyStopped == 0 {
			t.Fatalf("%v: adaptive run never early-stopped (refined %d)", kind, adpt.Cost.Refined)
		}
		if adpt.Cost.SamplesUsed >= full.Cost.SamplesUsed {
			t.Fatalf("%v: adaptive drew %d samples, full %d", kind, adpt.Cost.SamplesUsed, full.Cost.SamplesUsed)
		}

		// The qualifying decision must agree with the exact enhanced
		// evaluation for every candidate (uniform pdfs: closed form,
		// far-from-threshold workload).
		exactResp, err := e.Evaluate(context.Background(), requestFor(kind, q, EvalOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		exact := exactResp.Result
		exactSet := matchesToMap(exact.Matches)
		adptSet := matchesToMap(adpt.Matches)
		for id, p := range exactSet {
			if p < q.Threshold+0.05 {
				continue // borderline: sampling noise may differ legitimately
			}
			if _, ok := adptSet[id]; !ok {
				t.Errorf("%v: clear-cut qualifier %d (p=%.3f) missing from adaptive basic result", kind, id, p)
			}
		}
		for id, p := range adptSet {
			ep, ok := exactSet[id]
			if ok && ep >= q.Threshold {
				continue
			}
			if !ok && p > q.Threshold+0.05 {
				t.Errorf("%v: adaptive basic accepted %d (p=%.3f) that exact evaluation rejects", kind, id, p)
			}
		}
	}
}

// TestSnapshotConcurrentWriterFlood races several ApplyUpdates callers
// against each other and against live readers while a snapshot stays
// pinned. Writers serialize on the engine's writer lock; the test
// asserts that every batch commits atomically (all its updates
// applied, exactly one version bump), that no batch is lost or applied
// twice under contention, and that the pinned snapshot's answer stays
// bit-identical throughout. The readers evaluate alongside the writers
// the whole time and never wait for them: evaluation never takes the
// writer lock. Run under -race by the CI soak job.
func TestSnapshotConcurrentWriterFlood(t *testing.T) {
	e := testWorld(t, 0, 2000, 13)
	q := Query{Issuer: testIssuer(t, geom.Pt(500, 500), 50), W: 120, H: 120, Threshold: 0.3}

	snap := e.Snapshot()
	defer snap.Close()
	baseline, err := snap.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v0 := e.Version()

	const (
		writers   = 4
		perWriter = 16
		batchSize = 8
	)
	var (
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		failures atomic.Int64
		firstErr atomic.Pointer[string]
	)
	fail := func(msg string) {
		failures.Add(1)
		firstErr.CompareAndSwap(nil, &msg)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for b := 0; b < perWriter; b++ {
				batch, err := randomBatch(e, rng, batchSize)
				if err != nil {
					fail("building batch: " + err.Error())
					return
				}
				rep := e.ApplyUpdates(batch)
				if len(rep.Errors) > 0 {
					fail("apply: " + rep.Errors[0].Err.Error())
					return
				}
				if rep.Applied != batchSize {
					fail("batch applied partially — atomicity broken")
					return
				}
			}
		}(100 + int64(w))
	}
	// Live readers churn the read path while writers contend.
	var readerWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.evaluateSeeded(KindUncertain, q, EvalOptions{}, seed); err != nil {
					fail("live read: " + err.Error())
					return
				}
			}
		}(200 + int64(r))
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d concurrent failures, first: %s", failures.Load(), *firstErr.Load())
	}

	// Every batch committed exactly once: the version advanced by the
	// total batch count, no interleaving lost a commit.
	if got, want := e.Version(), v0+writers*perWriter; got != want {
		t.Fatalf("version %d after flood, want %d", got, want)
	}
	if e.NumUncertain() != 2000 {
		t.Fatalf("object count drifted to %d (upsert-only flood)", e.NumUncertain())
	}

	// The pinned snapshot's world is untouched: bit-exact re-run.
	again, err := snap.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Matches) != len(baseline.Matches) {
		t.Fatalf("pinned re-run: %d matches, want %d", len(again.Matches), len(baseline.Matches))
	}
	for i := range again.Matches {
		if again.Matches[i] != baseline.Matches[i] {
			t.Fatalf("match %d differs after flood: %+v vs %+v", i, again.Matches[i], baseline.Matches[i])
		}
	}
	if again.Cost.SamplesUsed != baseline.Cost.SamplesUsed {
		t.Fatalf("pinned re-run drew %d samples, baseline %d", again.Cost.SamplesUsed, baseline.Cost.SamplesUsed)
	}

	// Quiesced: only the snapshot's pin remains.
	if st := e.SnapshotStats(); st.Pins != 1 || st.OpenSnapshots != 1 {
		t.Fatalf("quiesced stats %+v, want exactly the test snapshot pinned", st)
	}
}

// randomBatch is makeUpdateBatch without the testing.TB dependency, so
// writer goroutines can build batches without calling t.Fatal off the
// test goroutine.
func randomBatch(e *Engine, rng *rand.Rand, size int) ([]Update, error) {
	n := e.NumUncertain()
	batch := make([]Update, size)
	for j := range batch {
		id := uncertain.ID(rng.Intn(n))
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if obj, ok := e.Object(id); ok {
			r := obj.Region()
			c = geom.Pt(r.Center().X+(rng.Float64()-0.5)*20, r.Center().Y+(rng.Float64()-0.5)*20)
		}
		o, err := uncertain.NewObject(id, pdf.MustUniform(geom.RectCentered(c, 5+rng.Float64()*10, 5+rng.Float64()*10)),
			uncertain.PaperCatalogProbs())
		if err != nil {
			return nil, err
		}
		batch[j] = Update{Op: OpUpsertObject, Object: o}
	}
	return batch, nil
}

// TestSnapshotMaxAgeForcedClose covers the snapshot age bound: a
// snapshot leaked past EngineOptions.MaxSnapshotAge is force-closed by
// the next sweep (SnapshotStats or a publish), its pin released so
// retired nodes reclaim, the ForcedCloses counter advanced, and a late
// user Close stays a no-op.
func TestSnapshotMaxAgeForcedClose(t *testing.T) {
	e := testWorldOpts(t, 0, 300, 17, EngineOptions{MaxSnapshotAge: 50 * time.Millisecond})
	q := Query{Issuer: testIssuer(t, geom.Pt(500, 500), 40), W: 120, H: 120}
	rng := rand.New(rand.NewSource(2))

	leak := e.Snapshot()
	if rep := e.ApplyUpdates(makeUpdateBatch(t, e, rng, 32)); len(rep.Errors) > 0 {
		t.Fatal(rep.Errors[0])
	}
	// Young snapshots survive the sweep, and their pin retains the
	// superseded nodes.
	if st := e.SnapshotStats(); st.OpenSnapshots != 1 || st.ForcedCloses != 0 {
		t.Fatalf("young snapshot swept: %+v", st)
	} else if st.RetiredNodes == 0 {
		t.Fatalf("expected retained retired nodes while pinned: %+v", st)
	}

	time.Sleep(120 * time.Millisecond)
	st := e.SnapshotStats()
	if st.ForcedCloses != 1 || st.OpenSnapshots != 0 {
		t.Fatalf("aged snapshot not force-closed: %+v", st)
	}
	if st.RetiredNodes != 0 || st.Pins != 0 {
		t.Fatalf("forced close did not release the pin: %+v", st)
	}
	if _, err := leak.EvaluateUncertain(q, EvalOptions{}); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("evaluation through force-closed snapshot: %v", err)
	}
	// The user's own (late) Close must not double-release.
	leak.Close()
	if st := e.SnapshotStats(); st.ForcedCloses != 1 || st.Pins != 0 {
		t.Fatalf("late user Close double-released: %+v", st)
	}

	// The publish path sweeps too: an aged leak is closed by the next
	// ApplyUpdates, before any metrics call looks.
	leak2 := e.Snapshot()
	time.Sleep(120 * time.Millisecond)
	if rep := e.ApplyUpdates(makeUpdateBatch(t, e, rng, 8)); len(rep.Errors) > 0 {
		t.Fatal(rep.Errors[0])
	}
	if _, err := leak2.EvaluateUncertain(q, EvalOptions{}); !errors.Is(err, ErrSnapshotClosed) {
		t.Fatalf("publish-path sweep missed the aged snapshot: %v", err)
	}
	if st := e.SnapshotStats(); st.ForcedCloses != 2 {
		t.Fatalf("ForcedCloses = %d, want 2: %+v", st.ForcedCloses, st)
	}
}

// TestCowTableGrow drives a tableTxn far past its base table's sizing
// so the spine doubles (repeatedly), then checks the resized table:
// contents intact, buckets still id-sorted (growth splits each bucket
// in order), fill back at or under the target, and the base table
// untouched.
func TestCowTableGrow(t *testing.T) {
	tab := newCowTable[int](0) // 64-bucket floor, grows past 2048 entries
	for i := 0; i < 100; i++ {
		tab.put(uncertain.ID(i), i)
	}
	baseBuckets := tab.numBuckets()

	tx := newTableTxn(tab)
	const n = 10_000
	for i := 0; i < n; i++ {
		tx.Put(uncertain.ID(i), i*3)
	}
	for i := 0; i < n; i += 10 {
		if !tx.Delete(uncertain.ID(i)) {
			t.Fatalf("delete %d failed after growth", i)
		}
	}
	next := tx.Commit()

	// Base untouched by the growing txn.
	if tab.Len() != 100 || tab.numBuckets() != baseBuckets {
		t.Fatalf("base mutated: len %d, buckets %d", tab.Len(), tab.numBuckets())
	}
	for i := 0; i < 100; i++ {
		if v, ok := tab.Get(uncertain.ID(i)); !ok || v != i {
			t.Fatalf("base[%d] = %d, %t", i, v, ok)
		}
	}

	// Grown: doubled spine, fill at or below target, contents exact.
	if next.numBuckets() <= baseBuckets {
		t.Fatalf("spine did not grow: %d buckets for %d entries", next.numBuckets(), next.Len())
	}
	if next.Len() > next.numBuckets()*tableBucketFill {
		t.Fatalf("fill %d entries over %d buckets exceeds target %d",
			next.Len(), next.numBuckets(), tableBucketFill)
	}
	if want := n - n/10; next.Len() != want {
		t.Fatalf("len %d, want %d", next.Len(), want)
	}
	for i := 0; i < n; i++ {
		v, ok := next.Get(uncertain.ID(i))
		if i%10 == 0 {
			if ok {
				t.Fatalf("deleted %d still present", i)
			}
		} else if !ok || v != i*3 {
			t.Fatalf("next[%d] = %d, %t", i, v, ok)
		}
	}
	for b := range next.numBuckets() {
		s := next.bucket(b)
		for j := 1; j < len(s); j++ {
			if s[j-1].id >= s[j].id {
				t.Fatalf("bucket %d unsorted after growth at %d", b, j)
			}
		}
	}

	// A later txn over the grown table copies buckets again as usual.
	tx2 := newTableTxn(next)
	tx2.Put(uncertain.ID(123456), 7)
	if !tx2.Delete(uncertain.ID(1)) {
		t.Fatal("post-growth delete failed")
	}
	after := tx2.Commit()
	if v, ok := after.Get(uncertain.ID(123456)); !ok || v != 7 {
		t.Fatal("post-growth insert lost")
	}
	if v, ok := next.Get(uncertain.ID(1)); !ok || v != 3 {
		t.Fatalf("grown table mutated by later txn: %d, %t", v, ok)
	}
}

// TestCowTableTxnCostFollowsTouches: what a txn allocates follows the
// buckets it touches, not the size of the table's spine — a flat spine
// copied 24 bytes per bucket of the whole table into every txn.
func TestCowTableTxnCostFollowsTouches(t *testing.T) {
	const n = 1 << 16
	tab := newCowTable[int](n) // 2048 buckets
	for i := 0; i < n; i++ {
		tab.put(uncertain.ID(i), i)
	}
	txnBytes := func(touches int) float64 {
		const rounds = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			tx := newTableTxn(tab)
			for k := 0; k < touches; k++ {
				tx.Put(uncertain.ID((r*131+k*977)%n), -1)
			}
			if next := tx.Commit(); next.Len() != n {
				t.Fatalf("replacing values changed the size: %d", next.Len())
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds
	}
	few, many := txnBytes(4), txnBytes(64)
	flatSpine := float64(tab.numBuckets() * 24)
	t.Logf("%d buckets: txn touching 4 ids allocates %.0f B, 64 ids %.0f B; a flat spine alone is %.0f B", tab.numBuckets(), few, many, flatSpine)
	if few > flatSpine/4 {
		t.Errorf("a 4-touch txn allocates %.0f B, more than a quarter of the %.0f B flat spine", few, flatSpine)
	}
	if many < 4*few {
		t.Errorf("cost does not follow touches: 4 ids %.0f B, 64 ids %.0f B", few, many)
	}
	if v, ok := tab.Get(977); !ok || v != 977 {
		t.Fatalf("base table mutated: %d, %t", v, ok)
	}
}
