package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// applyOne applies u as a batch of its own and returns its report and
// the update's error, if any.
func applyOne(e *Engine, u Update) (UpdateReport, error) {
	rep := e.ApplyUpdates([]Update{u})
	if len(rep.Errors) > 0 {
		return rep, rep.Errors[0].Err
	}
	return rep, nil
}

func TestInsertDeletePoints(t *testing.T) {
	e := testWorld(t, 200, 0, 31)
	iss := testIssuer(t, geom.Pt(500, 500), 50)
	q := Query{Issuer: iss, W: 100, H: 100}

	before, err := e.EvaluatePoints(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Insert a point right at the issuer center: must appear with p=1.
	newPt := uncertain.PointObject{ID: 9999, Loc: geom.Pt(500, 500)}
	if _, err := applyOne(e, Update{Op: OpUpsertPoint, Point: newPt}); err != nil {
		t.Fatal(err)
	}
	if e.NumPoints() != 201 {
		t.Fatalf("NumPoints = %d", e.NumPoints())
	}
	after, err := e.EvaluatePoints(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Matches) != len(before.Matches)+1 {
		t.Fatalf("matches %d -> %d after insert", len(before.Matches), len(after.Matches))
	}
	m := matchesToMap(after.Matches)
	if m[9999] != 1 {
		t.Fatalf("inserted point probability = %g, want 1", m[9999])
	}

	// An upsert of a present id moves it in place: no second copy.
	rep, err := applyOne(e, Update{Op: OpUpsertPoint, Point: newPt})
	if err != nil || len(rep.Changes) != 1 || !rep.Changes[0].HasOld || e.NumPoints() != 201 {
		t.Fatalf("re-upsert: %+v, %v, NumPoints %d", rep, err, e.NumPoints())
	}

	// Delete it again: results return to the original.
	if rep, err := applyOne(e, Update{Op: OpDeletePoint, ID: 9999}); err != nil || rep.Applied != 1 {
		t.Fatalf("delete: %+v %v", rep, err)
	}
	if rep, _ := applyOne(e, Update{Op: OpDeletePoint, ID: 9999}); rep.Applied != 0 || rep.Missing != 1 {
		t.Fatalf("double delete: %+v", rep)
	}
	final, err := e.EvaluatePoints(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Matches) != len(before.Matches) {
		t.Fatalf("matches %d after delete, want %d", len(final.Matches), len(before.Matches))
	}
	if _, ok := e.Point(9999); ok {
		t.Fatal("deleted point still resolvable")
	}
}

func TestMovePoint(t *testing.T) {
	e := testWorld(t, 50, 0, 32)
	if _, err := applyOne(e, Update{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: 500, Loc: geom.Pt(10, 10)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := applyOne(e, Update{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: 500, Loc: geom.Pt(900, 900)}}); err != nil {
		t.Fatal(err)
	}
	iss := testIssuer(t, geom.Pt(900, 900), 20)
	res, err := e.EvaluatePoints(Query{Issuer: iss, W: 50, H: 50}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if matchesToMap(res.Matches)[500] != 1 {
		t.Fatal("moved point not found at destination")
	}
	if e.NumPoints() != 51 {
		t.Fatalf("NumPoints = %d after the move, want 51", e.NumPoints())
	}
}

// TestNonFinitePointRefused: a point at ±Inf or NaN is refused where it
// would enter the point tree — one update of a batch, the rest of which
// still applies, an insert, a move and NewEngine — and the tree
// stays valid. Without the check, a 300-point batch with every other
// point at (+Inf, +Inf) panics the tree's quadratic split.
func TestNonFinitePointRefused(t *testing.T) {
	inf := math.Inf(1)
	e := testWorld(t, 0, 0, 44)
	rng := rand.New(rand.NewSource(44))
	var batch []Update
	for i := range 300 {
		loc := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		if i%2 == 1 {
			loc = geom.Pt(inf, inf)
		}
		batch = append(batch, Update{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: uncertain.ID(i), Loc: loc}})
	}
	rep := e.ApplyUpdates(batch)
	if rep.Applied != 150 || len(rep.Errors) != 150 {
		t.Fatalf("applied %d with %d errors, want 150 and 150", rep.Applied, len(rep.Errors))
	}
	for k, ue := range rep.Errors {
		if ue.Index != 2*k+1 {
			t.Fatalf("error %d names update %d, want %d: %v", k, ue.Index, 2*k+1, ue.Err)
		}
	}
	if e.NumPoints() != 150 {
		t.Fatalf("NumPoints = %d, want 150", e.NumPoints())
	}
	if err := e.PointIndex().CheckInvariants(false); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []geom.Point{{X: inf, Y: 1}, {X: 1, Y: -inf}, {X: math.NaN(), Y: 1}, {X: 1, Y: math.NaN()}} {
		if _, err := applyOne(e, Update{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: 1000, Loc: bad}}); err == nil {
			t.Errorf("insert at %v accepted", bad)
		}
		if _, err := applyOne(e, Update{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: 0, Loc: bad}}); err == nil {
			t.Errorf("move to %v accepted", bad)
		}
		if _, err := NewEngine([]uncertain.PointObject{{ID: 1, Loc: geom.Pt(1, 1)}, {ID: 2, Loc: bad}}, nil, EngineOptions{}); err == nil {
			t.Errorf("NewEngine with a point at %v accepted", bad)
		}
	}
	if p, ok := e.Point(0); !ok || p.Loc != batch[0].Point.Loc {
		t.Fatalf("a refused move left point 0 at %v (present %t), want %v", p.Loc, ok, batch[0].Point.Loc)
	}
	if e.NumPoints() != 150 {
		t.Fatalf("NumPoints = %d after the refusals, want 150", e.NumPoints())
	}
	if err := e.PointIndex().CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteObjects(t *testing.T) {
	e := testWorld(t, 0, 150, 33)
	iss := testIssuer(t, geom.Pt(500, 500), 50)
	q := Query{Issuer: iss, W: 100, H: 100, Threshold: 0.5}

	before, err := e.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// An object right under the issuer: qualifies with p=1.
	obj, err := uncertain.NewObject(7777,
		pdf.MustUniform(geom.RectCentered(geom.Pt(500, 500), 10, 10)),
		uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyOne(e, Update{Op: OpUpsertObject, Object: obj}); err != nil {
		t.Fatal(err)
	}
	if _, err := applyOne(e, Update{Op: OpUpsertObject, Object: obj}); err != nil || e.NumUncertain() != 151 {
		t.Fatalf("re-upsert: %v, NumUncertain %d", err, e.NumUncertain())
	}
	after, err := e.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if matchesToMap(after.Matches)[7777] != 1 {
		t.Fatalf("inserted object p = %g, want 1", matchesToMap(after.Matches)[7777])
	}
	if len(after.Matches) != len(before.Matches)+1 {
		t.Fatalf("matches %d -> %d", len(before.Matches), len(after.Matches))
	}

	// Objects without full catalogs are rejected by the PTI.
	bare, err := uncertain.NewObject(8888, pdf.MustUniform(geom.RectCentered(geom.Pt(1, 1), 1, 1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyOne(e, Update{Op: OpUpsertObject, Object: bare}); err == nil {
		t.Fatal("catalog-less object accepted")
	}

	if rep, err := applyOne(e, Update{Op: OpDeleteObject, ID: 7777}); err != nil || rep.Applied != 1 {
		t.Fatalf("delete: %+v %v", rep, err)
	}
	if rep, _ := applyOne(e, Update{Op: OpDeleteObject, ID: 7777}); rep.Applied != 0 || rep.Missing != 1 {
		t.Fatalf("double object delete: %+v", rep)
	}
	final, err := e.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Matches) != len(before.Matches) {
		t.Fatal("delete did not restore results")
	}
}

func TestReplaceObject(t *testing.T) {
	e := testWorld(t, 0, 50, 34)
	// Simulate a position re-report: object 10 moves to the issuer's
	// neighborhood with a tight region.
	obj, err := uncertain.NewObject(10,
		pdf.MustUniform(geom.RectCentered(geom.Pt(500, 500), 5, 5)),
		uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyOne(e, Update{Op: OpUpsertObject, Object: obj}); err != nil {
		t.Fatal(err)
	}
	if e.NumUncertain() != 50 {
		t.Fatalf("NumUncertain = %d after replace", e.NumUncertain())
	}
	iss := testIssuer(t, geom.Pt(500, 500), 30)
	res, err := e.EvaluateUncertain(Query{Issuer: iss, W: 60, H: 60}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if matchesToMap(res.Matches)[10] != 1 {
		t.Fatal("replaced object not found at new position")
	}
	// An upsert can also insert a fresh id.
	fresh, err := uncertain.NewObject(4242,
		pdf.MustUniform(geom.RectCentered(geom.Pt(100, 100), 5, 5)),
		uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := applyOne(e, Update{Op: OpUpsertObject, Object: fresh}); err != nil {
		t.Fatal(err)
	}
	if e.NumUncertain() != 51 {
		t.Fatalf("NumUncertain = %d after fresh replace", e.NumUncertain())
	}
}

func TestChurnKeepsIndexConsistent(t *testing.T) {
	// Sustained insert/delete churn, then answers must match a linear
	// scan.
	e := testWorld(t, 300, 300, 35)
	rng := rand.New(rand.NewSource(36))
	nextID := uncertain.ID(10000)
	live := map[uncertain.ID]bool{}
	for i := 0; i < 300; i++ {
		live[uncertain.ID(i)] = true
	}
	for op := 0; op < 400; op++ {
		if rng.Intn(2) == 0 {
			c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			obj, err := uncertain.NewObject(nextID,
				pdf.MustUniform(geom.RectCentered(c, 2+rng.Float64()*20, 2+rng.Float64()*20)),
				uncertain.PaperCatalogProbs())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := applyOne(e, Update{Op: OpUpsertObject, Object: obj}); err != nil {
				t.Fatal(err)
			}
			live[nextID] = true
			nextID++
		} else {
			// Delete a random live object.
			for id := range live {
				if rep, err := applyOne(e, Update{Op: OpDeleteObject, ID: id}); err != nil || rep.Applied != 1 {
					t.Fatalf("churn delete %d: %+v %v", id, rep, err)
				}
				delete(live, id)
				break
			}
		}
	}
	if err := e.UncertainIndex().Tree().CheckInvariants(false); err != nil {
		t.Fatal(err)
	}
	iss := testIssuer(t, geom.Pt(500, 500), 60)
	q := Query{Issuer: iss, W: 120, H: 120}
	res, err := e.EvaluateUncertain(q, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for id := range live {
		o, ok := e.Object(id)
		if !ok {
			t.Fatalf("live object %d missing from table", id)
		}
		if ObjectQualification(iss.PDF, o.PDF, q.W, q.H, ObjectEvalConfig{}, nil) > 0 {
			want++
		}
	}
	if len(res.Matches) != want {
		t.Fatalf("after churn: %d matches, want %d", len(res.Matches), want)
	}
}

// TestEvaluateUncertainParallelMonteCarlo: forced Monte-Carlo requests
// refined concurrently — an EvaluateAll fan-out, each request on its own
// worker goroutine and sample streams — stay near the closed form.
func TestEvaluateUncertainParallelMonteCarlo(t *testing.T) {
	e := testWorld(t, 0, 600, 39)
	mcOpts := EvalOptions{Object: ObjectEvalConfig{ForceMonteCarlo: true, MCSamples: 20000}}
	var reqs []Request
	var exact []Result
	for _, c := range []geom.Point{{X: 500, Y: 500}, {X: 300, Y: 650}, {X: 700, Y: 350}} {
		q := Query{Issuer: testIssuer(t, c, 60), W: 120, H: 120}
		res, err := e.EvaluateUncertain(q, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		exact = append(exact, res)
		reqs = append(reqs, requestFor(KindUncertain, q, mcOpts))
	}
	mc, errs := collectAll(t, e.EvaluateAll, reqs, AllOptions{Workers: 3})
	for i := range reqs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		exactMap := matchesToMap(exact[i].Matches)
		for _, m := range mc[i].Matches {
			if want, ok := exactMap[m.ID]; ok && !approx(m.P, want, 0.03) {
				t.Fatalf("request %d object %d: parallel MC %g vs exact %g", i, m.ID, m.P, want)
			}
		}
	}
}

// rejectingStore is an in-memory node store whose Update fails while
// reject is set. A copy-on-write build writes nodes only through its
// flush (allocations and frees go straight to the store), so an armed
// store lets a batch build in full and then fail at the flush.
type rejectingStore struct {
	*rtree.MemNodeStore
	reject bool
}

var errRejectedWrite = errors.New("store rejected the write")

func (s *rejectingStore) Update(n *rtree.Node) error {
	if s.reject {
		return errRejectedWrite
	}
	return s.MemNodeStore.Update(n)
}

// TestApplyUpdatesStorageFailure: a batch whose node writes the store
// rejects publishes none of itself. It reports one batch-wide error
// (Index -1) against the unchanged version, and the snapshot it hands
// back pins that same version. The aborted build's fresh nodes are
// freed, answers do not move, no pin leaks, and the next batch commits
// normally.
func TestApplyUpdatesStorageFailure(t *testing.T) {
	store := &rejectingStore{MemNodeStore: rtree.NewMemNodeStore()}
	e := testWorldOpts(t, 300, 0, 61, EngineOptions{PointNodeStore: store})
	req := RequestPoints(testIssuer(t, geom.Pt(500, 500), 60), 150, 150, 0)
	before, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	v0, nodes0 := e.Version(), store.NumNodes()

	rng := rand.New(rand.NewSource(62))
	batch := make([]Update, 16)
	for i := range batch {
		batch[i] = Update{Op: OpUpsertPoint, Point: uncertain.PointObject{
			ID:  uncertain.ID(rng.Intn(300)),
			Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
		}}
	}

	store.reject = true
	rep, snap := e.ApplyUpdatesSnapshot(batch)
	if len(rep.Errors) != 1 || rep.Errors[0].Index != -1 || !errors.Is(rep.Errors[0].Err, errRejectedWrite) {
		t.Fatalf("errors = %v, want one batch-wide (Index -1) rejected write", rep.Errors)
	}
	if rep.Applied != 0 || len(rep.Changes) != 0 {
		t.Fatalf("failed batch reports Applied %d, %d changes", rep.Applied, len(rep.Changes))
	}
	if rep.Version != v0 || snap.Version() != v0 || e.Version() != v0 {
		t.Fatalf("versions: report %d, snapshot %d, engine %d, want all %d", rep.Version, snap.Version(), e.Version(), v0)
	}
	if n := store.NumNodes(); n != nodes0 {
		t.Fatalf("store holds %d nodes after the aborted batch, %d before", n, nodes0)
	}
	after, err := e.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripDurations(before.Result), stripDurations(after.Result)) || after.Version != v0 {
		t.Fatal("answer moved after a batch that published nothing")
	}
	snap.Close()
	if pins := e.SnapshotStats().Pins; pins != 0 {
		t.Fatalf("%d pins left after Close", pins)
	}

	store.reject = false
	if rep := e.ApplyUpdates(batch); len(rep.Errors) != 0 || rep.Version != v0+1 || e.Version() != v0+1 {
		t.Fatalf("batch after disarming: errors %v, version %d (engine %d), want %d", rep.Errors, rep.Version, e.Version(), v0+1)
	}
}
