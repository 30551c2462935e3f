package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

func nnTestIssuer(t *testing.T, center geom.Point, half float64) *uncertain.Object {
	t.Helper()
	p, err := pdf.NewUniform(geom.RectCentered(center, half, half))
	if err != nil {
		t.Fatal(err)
	}
	obj, err := uncertain.NewObject(uncertain.ID(-1), p, uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestNNCandidatesSplitEvaluate proves the sharded NN protocol on the
// core API alone: partition the points across N engines, collect
// NNCandidates from each, merge with the global tau, finish with
// EvaluateNNCandidates, and require the matches to be bit-identical to
// a single engine holding every point.
func TestNNCandidatesSplitEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var points []uncertain.PointObject
	for i := 0; i < 400; i++ {
		points = append(points, uncertain.PointObject{
			ID:  uncertain.ID(i + 1),
			Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000),
		})
	}
	single, err := NewEngine(points, nil, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}

	req := Request{
		Kind:      KindNN,
		Issuer:    nnTestIssuer(t, geom.Pt(420, 610), 40),
		K:         8,
		Threshold: 0.05,
		NNSamples: 512,
		Seed:      99,
	}
	want, err := single.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) == 0 {
		t.Fatal("reference evaluation produced no matches; pick a better region")
	}

	for _, shards := range []int{1, 2, 4} {
		parts := make([][]uncertain.PointObject, shards)
		for i, p := range points {
			parts[i%shards] = append(parts[i%shards], p)
		}
		tau := math.Inf(1)
		var sets []NNCandidateSet
		for _, part := range parts {
			eng, err := NewEngine(part, nil, EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			snap := eng.Snapshot()
			set, err := snap.NNCandidates(context.Background(), req, NNCandidateOptions{})
			snap.Close()
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, set)
			if set.Tau < tau {
				tau = set.Tau
			}
		}
		u0 := req.Issuer.Region()
		var merged []NNCandidate
		for _, set := range sets {
			for _, c := range set.Candidates {
				if u0.MinDist(geom.Pt(c.Loc[0], c.Loc[1])) <= tau {
					merged = append(merged, c)
				}
			}
		}
		got, err := EvaluateNNCandidates(context.Background(), req, merged, tau)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tau != want.Tau {
			t.Errorf("shards=%d: tau %v, want %v", shards, got.Tau, want.Tau)
		}
		if len(got.Matches) != len(want.Matches) {
			t.Fatalf("shards=%d: %d matches, want %d", shards, len(got.Matches), len(want.Matches))
		}
		for i := range got.Matches {
			if got.Matches[i].ID != want.Matches[i].ID ||
				math.Float64bits(got.Matches[i].P) != math.Float64bits(want.Matches[i].P) {
				t.Fatalf("shards=%d: match %d = %+v, want %+v",
					shards, i, got.Matches[i], want.Matches[i])
			}
		}
	}
}

// TestNNCandidatesTauBoundAndLimit checks the re-issue knobs: a tight
// TauBound shrinks the candidate list without changing tau, and Limit
// reports truncation instead of an unbounded response.
func TestNNCandidatesTauBoundAndLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var points []uncertain.PointObject
	for i := 0; i < 200; i++ {
		points = append(points, uncertain.PointObject{
			ID:  uncertain.ID(i + 1),
			Loc: geom.Pt(rng.Float64()*100, rng.Float64()*100),
		})
	}
	eng, err := NewEngine(points, nil, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{
		Kind:      KindNN,
		Issuer:    nnTestIssuer(t, geom.Pt(50, 50), 30),
		K:         5,
		NNSamples: 64,
		Seed:      1,
	}
	snap := eng.Snapshot()
	defer snap.Close()

	full, err := snap.NNCandidates(context.Background(), req, NNCandidateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || len(full.Candidates) == 0 {
		t.Fatalf("unexpected full set: %+v", full)
	}

	bounded, err := snap.NNCandidates(context.Background(), req, NNCandidateOptions{TauBound: full.Tau / 2})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Tau != full.Tau {
		t.Errorf("TauBound changed reported tau: %v vs %v", bounded.Tau, full.Tau)
	}
	if len(bounded.Candidates) >= len(full.Candidates) {
		t.Errorf("TauBound did not shrink candidates: %d vs %d", len(bounded.Candidates), len(full.Candidates))
	}

	capped, err := snap.NNCandidates(context.Background(), req, NNCandidateOptions{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Truncated || len(capped.Candidates) > 3 {
		t.Errorf("Limit not honored: truncated=%v n=%d", capped.Truncated, len(capped.Candidates))
	}

	// Duplicate ids must be refused by the merge stage.
	dup := append([]NNCandidate{}, full.Candidates[0], full.Candidates[0])
	if _, err := EvaluateNNCandidates(context.Background(), req, dup, full.Tau); err == nil {
		t.Error("EvaluateNNCandidates accepted duplicate candidate ids")
	}
}

// TestNNCandidatesHonoursTimeout: the shard half of an NN request is
// bounded by the request's Timeout exactly as Evaluate is.
func TestNNCandidatesHonoursTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var points []uncertain.PointObject
	for i := 0; i < 500; i++ {
		points = append(points, uncertain.PointObject{ID: uncertain.ID(i), Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)})
	}
	eng, err := NewEngine(points, nil, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: KindNN, Issuer: nnTestIssuer(t, geom.Pt(500, 500), 50), K: 1, Threshold: 0.1}
	req.Options.Timeout = time.Nanosecond
	if _, err := eng.Evaluate(context.Background(), req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Evaluate: err = %v, want context.DeadlineExceeded", err)
	}
	snap := eng.Snapshot()
	defer snap.Close()
	set, err := snap.NNCandidates(context.Background(), req, NNCandidateOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("NNCandidates: err = %v (%d candidates), want context.DeadlineExceeded", err, len(set.Candidates))
	}
}

// tablePoints returns every row of the state's point table, in id order.
func tablePoints(st *engineState) []uncertain.PointObject {
	var pts []uncertain.PointObject
	st.points.Range(func(_ uncertain.ID, p uncertain.PointObject) bool {
		pts = append(pts, p)
		return true
	})
	slices.SortFunc(pts, func(a, b uncertain.PointObject) int { return cmp.Compare(a.ID, b.ID) })
	return pts
}

// checkPointIndex holds the invariant collectNN and probePoints read
// through: the point index has exactly one leaf entry per table row, a
// degenerate rectangle at the row's location (bit for bit) whose Ref is
// the row's id.
func checkPointIndex(t *testing.T, label string, e *Engine) {
	t.Helper()
	st := e.acquireState()
	defer e.releaseState(st)
	seen := make(map[uncertain.ID]bool, st.points.Len())
	err := st.pointIdx.Walk(func(n *rtree.Node, _ int) error {
		if !n.Leaf {
			return nil
		}
		for _, en := range n.Entries {
			id := uncertain.ID(en.Ref)
			p, ok := st.points.Get(id)
			switch {
			case !ok:
				return fmt.Errorf("leaf entry %d has no table row", id)
			case seen[id]:
				return fmt.Errorf("id %d has two leaf entries", id)
			case !sameBits(en.Rect.Lo, en.Rect.Hi):
				return fmt.Errorf("id %d: leaf rect %v is not a point", id, en.Rect)
			case !sameBits(en.Rect.Lo, p.Loc):
				return fmt.Errorf("id %d: leaf at %v, table at %v", id, en.Rect.Lo, p.Loc)
			}
			seen[id] = true
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(seen) != st.points.Len() || st.pointIdx.Len() != st.points.Len() {
		t.Fatalf("%s: %d leaf entries (tree size %d), %d table rows", label, len(seen), st.pointIdx.Len(), st.points.Len())
	}
}

func sameBits(a, b geom.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// checkNNAgainstOracle holds one NNCandidates answer to the brute-force
// definition over the point table: tau is the smallest MaxDist from the
// issuer region, and the candidates are every point whose MinDist is at
// most min(tau, TauBound), in id order — or, when Limit cut the list,
// Limit of them, Truncated set exactly when more qualified.
func checkNNAgainstOracle(t *testing.T, label string, e *Engine, req Request, o NNCandidateOptions) {
	t.Helper()
	snap := e.Snapshot()
	defer snap.Close()
	got, err := snap.NNCandidates(context.Background(), req, o)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	st := e.acquireState()
	pts := tablePoints(st)
	e.releaseState(st)

	u0 := req.Issuer.Region()
	tau := math.Inf(1)
	for _, p := range pts {
		tau = min(tau, u0.MaxDist(p.Loc))
	}
	radius := tau
	if o.TauBound > 0 && o.TauBound < radius {
		radius = o.TauBound
	}
	var want []NNCandidate
	for _, p := range pts {
		if u0.MinDist(p.Loc) <= radius {
			want = append(want, NNCandidate{ID: p.ID, Loc: [2]float64{p.Loc.X, p.Loc.Y}})
		}
	}
	if math.Float64bits(got.Tau) != math.Float64bits(tau) {
		t.Fatalf("%s: tau %v, want %v", label, got.Tau, tau)
	}
	if wantTrunc := o.Limit > 0 && len(want) > o.Limit; got.Truncated != wantTrunc {
		t.Fatalf("%s: Truncated = %v with %d qualifying, limit %d", label, got.Truncated, len(want), o.Limit)
	}
	if got.Truncated {
		if len(got.Candidates) != o.Limit {
			t.Fatalf("%s: truncated list holds %d, limit %d", label, len(got.Candidates), o.Limit)
		}
		// A truncated list is some Limit of the qualifying points, still
		// in id order: drop the ones it skipped from the oracle's list.
		kept := want[:0:0]
		i := 0
		for _, c := range got.Candidates {
			for i < len(want) && want[i].ID != c.ID {
				i++
			}
			if i == len(want) {
				t.Fatalf("%s: truncated list has %d, which does not qualify or is out of order", label, c.ID)
			}
			kept = append(kept, want[i])
			i++
		}
		want = kept
	}
	if len(got.Candidates) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got.Candidates), len(want))
	}
	for i, c := range got.Candidates {
		w := want[i]
		if c.ID != w.ID || math.Float64bits(c.Loc[0]) != math.Float64bits(w.Loc[0]) ||
			math.Float64bits(c.Loc[1]) != math.Float64bits(w.Loc[1]) {
			t.Fatalf("%s: candidate %d = %+v, want %+v", label, i, c, w)
		}
	}
}

// TestPointIndexMatchesTable holds the point index to the point table
// after a bulk load, through ApplyUpdates churn (moves, deletes,
// re-inserts of deleted ids) and across Open over a checkpoint plus a
// WAL tail, and NNCandidates to the brute-force oracle at each stage.
func TestPointIndexMatchesTable(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pt := func() geom.Point { return geom.Pt(rng.Float64()*1000, rng.Float64()*1000) }
	var points []uncertain.PointObject
	for i := 0; i < 3000; i++ {
		points = append(points, uncertain.PointObject{ID: uncertain.ID(i - 1000), Loc: pt()})
	}
	queries := func(label string, e *Engine) {
		t.Helper()
		checkPointIndex(t, label, e)
		for q, c := range []geom.Point{{X: 500, Y: 500}, {X: 40, Y: 960}, {X: 1200, Y: -300}} {
			req := Request{Kind: KindNN, Issuer: nnTestIssuer(t, c, 25+float64(q)*40), K: 1, Threshold: 0.1}
			checkNNAgainstOracle(t, label, e, req, NNCandidateOptions{})
			checkNNAgainstOracle(t, label, e, req, NNCandidateOptions{TauBound: 20})
			checkNNAgainstOracle(t, label, e, req, NNCandidateOptions{Limit: 5})
		}
	}
	churn := func(e *Engine, ids []uncertain.ID) {
		t.Helper()
		deleted := map[uncertain.ID]bool{}
		for range 40 {
			var batch []Update
			for range 25 {
				id := ids[rng.Intn(len(ids))]
				switch {
				case deleted[id]: // re-insert a deleted id
					batch = append(batch, Update{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: id, Loc: pt()}})
					delete(deleted, id)
				case rng.Intn(4) == 0:
					batch = append(batch, Update{Op: OpDeletePoint, ID: id})
					deleted[id] = true
				default: // move
					batch = append(batch, Update{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: id, Loc: pt()}})
				}
			}
			if rep := e.ApplyUpdates(batch); len(rep.Errors) > 0 {
				t.Fatalf("ApplyUpdates: %v", rep.Errors[0])
			}
		}
	}
	ids := make([]uncertain.ID, len(points))
	for i, p := range points {
		ids[i] = p.ID
	}

	bulk, err := NewEngine(points, nil, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queries("bulk load", bulk)
	churn(bulk, ids)
	queries("after churn", bulk)

	dir := t.TempDir()
	durable, err := Open(dir, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	for len(points) > 0 {
		n := min(500, len(points))
		batch := make([]Update, n)
		for i, p := range points[:n] {
			batch[i] = Update{Op: OpUpsertPoint, Point: p}
		}
		applyOK(t, durable, batch)
		points = points[n:]
	}
	churn(durable, ids)
	if _, err := durable.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	churn(durable, ids)
	queries("durable", durable)
	crash := t.TempDir()
	copyDir(t, dir, crash)
	reopened, err := Open(crash, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if ds := reopened.DurabilityStats(); ds.WALReplayedAtBoot == 0 {
		t.Fatalf("reopen replayed no WAL tail: %+v", ds)
	}
	if reopened.Version() != durable.Version() {
		t.Fatalf("reopened at version %d, want %d", reopened.Version(), durable.Version())
	}
	queries("checkpoint + WAL tail", reopened)
}

// FuzzNNCandidates drives a small engine through a random point op
// stream — upserts on a coarse grid, so distances tie often, moves,
// deletes and re-inserts — and holds the point index to the table and
// NNCandidates to the brute-force oracle for a random issuer, TauBound
// and Limit.
func FuzzNNCandidates(f *testing.F) {
	f.Add([]byte{0, 1, 10, 10, 0, 2, 12, 10, 1, 3, 40, 40, 2, 1, 0, 0, 0, 1, 11, 9}, 40.0, 40.0, 8.0, 0.0, uint8(0))
	f.Add([]byte{0, 1, 5, 5, 0, 2, 5, 5, 0, 3, 5, 5, 0, 4, 6, 6, 3, 2, 0, 0}, 20.0, 20.0, 3.0, 5.0, uint8(2))
	f.Add([]byte{1, 7, 200, 3, 1, 8, 3, 200, 2, 7, 0, 0, 0, 7, 100, 100}, 400.0, 400.0, 50.0, 1e9, uint8(1))
	f.Fuzz(func(t *testing.T, ops []byte, cx, cy, half, tauBound float64, limit uint8) {
		for _, v := range []float64{cx, cy, half, tauBound} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		cx, cy = math.Mod(cx, 1200), math.Mod(cy, 1200)
		half = math.Mod(math.Abs(half), 300)
		tauBound = math.Mod(tauBound, 2000)
		eng, err := NewEngine(nil, nil, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var batch []Update
		for i := 0; i+4 <= len(ops) && i < 4*256; i += 4 {
			op, id := ops[i]%4, uncertain.ID(ops[i+1]%48)-8
			loc := geom.Pt(float64(ops[i+2])*4, float64(ops[i+3])*4)
			switch op {
			case 0, 1:
				batch = append(batch, Update{Op: OpUpsertPoint, Point: uncertain.PointObject{ID: id, Loc: loc}})
			case 2:
				batch = append(batch, Update{Op: OpDeletePoint, ID: id})
			case 3:
				// End the batch here, so streams span several versions.
				eng.ApplyUpdates(batch)
				batch = batch[:0]
			}
		}
		eng.ApplyUpdates(batch)
		checkPointIndex(t, "fuzz", eng)
		iss, err := uncertain.NewObject(-1000, pdf.MustUniform(geom.RectCentered(geom.Pt(cx, cy), half, half)), uncertain.PaperCatalogProbs())
		if err != nil {
			t.Skip()
		}
		req := Request{Kind: KindNN, Issuer: iss, K: 1, Threshold: 0.1}
		checkNNAgainstOracle(t, "fuzz", eng, req, NNCandidateOptions{TauBound: tauBound, Limit: int(limit % 16)})
	})
}

// TestNNCandidatesConcurrent: collections running at once on one
// snapshot share the pooled scratch and frontiers, and each still
// returns what it returns alone.
func TestNNCandidatesConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var points []uncertain.PointObject
	for i := 0; i < 2000; i++ {
		points = append(points, uncertain.PointObject{ID: uncertain.ID(i), Loc: geom.Pt(rng.Float64()*1000, rng.Float64()*1000)})
	}
	eng, err := NewEngine(points, nil, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	defer snap.Close()
	reqs := make([]Request, 8)
	want := make([]NNCandidateSet, len(reqs))
	for i := range reqs {
		reqs[i] = Request{Kind: KindNN, Issuer: nnTestIssuer(t, geom.Pt(100+float64(i)*100, 900-float64(i)*100), 20+float64(i)*15), K: 1, Threshold: 0.1}
		if want[i], err = snap.NNCandidates(context.Background(), reqs[i], NNCandidateOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(reqs))
	for g := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 20 {
				i := (g + round) % len(reqs)
				got, err := snap.NNCandidates(context.Background(), reqs[i], NNCandidateOptions{})
				if err == nil && (got.Tau != want[i].Tau || !slices.Equal(got.Candidates, want[i].Candidates)) {
					err = fmt.Errorf("request %d: concurrent answer differs from the lone one", i)
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// TestRadiusBandMatchesMinDist holds collectNN's squared-distance
// filter to the MinDist > radius test it replaced, decision for
// decision: random points at every scale, points whose MinDist is the
// radius itself or one ulp either side of it (where the band hands
// over to the exact test), radii outside the band's range, and
// non-finite coordinates.
func TestRadiusBandMatchesMinDist(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	inf, nan := math.Inf(1), math.NaN()
	check := func(u0 geom.Rect, loc geom.Point, radius float64) {
		t.Helper()
		if got, want := newRadiusBand(radius).beyond(u0, loc), u0.MinDist(loc) > radius; got != want {
			t.Fatalf("u0 %v loc %v radius %v (MinDist %v): beyond %v, MinDist > radius %v",
				u0, loc, radius, u0.MinDist(loc), got, want)
		}
	}
	for i := range 200_000 {
		scale := math.Ldexp(1, rng.Intn(1200)-600)
		u0 := geom.RectCentered(geom.Pt((rng.Float64()-0.5)*scale, (rng.Float64()-0.5)*scale), rng.Float64()*scale, rng.Float64()*scale)
		loc := geom.Pt((rng.Float64()-0.5)*4*scale, (rng.Float64()-0.5)*4*scale)
		d := u0.MinDist(loc)
		radius := d * (0.5 + rng.Float64())
		switch i % 4 {
		case 1:
			radius = d
		case 2:
			radius = math.Nextafter(d, 0)
		case 3:
			radius = math.Nextafter(d, inf)
		}
		check(u0, loc, radius)
	}
	u0 := geom.RectCentered(geom.Pt(0, 0), 1, 1)
	for _, loc := range []geom.Point{{X: nan, Y: 0}, {X: nan, Y: inf}, {X: inf, Y: nan}, {X: -inf, Y: 3}, {X: 1e300, Y: 1e300}, {X: 1e-300, Y: 2}, {X: 0.5, Y: 0.5}} {
		for _, radius := range []float64{0, 1e-310, 0x1p-500, 1, 0x1p500, 1e300, inf, nan} {
			check(u0, loc, radius)
		}
	}
}
