package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/index/pti"
	"repro/internal/index/rtree"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// leafKinds is the number of object kinds leafTestObject draws from;
// kind 0 — a uniform pdf with the paper's catalog, the engine's
// default — is the only one that is a leaf record.
const leafKinds = 7

// leafTestObject builds object id of the given kind centred at c:
//
//	0 uniform, catalog at the index's values     (a leaf record)
//	1 truncated Gaussian                         (separable, not uniform)
//	2 grid                                       (non-separable)
//	3 disc                                       (non-separable)
//	4 uniform, catalog at 21 values (0, 0.05, …) (extra values)
//	5 uniform, catalog with 0.05 and 0.95 added  (extra values)
//	6 uniform, the index's values, rows restored from another region
//
// It reports whether the object is a leaf record, as the test knows it
// by construction.
func leafTestObject(t testing.TB, id uncertain.ID, kind int, c geom.Point, hx, hy float64) (*uncertain.Object, bool) {
	t.Helper()
	region := geom.RectCentered(c, hx, hy)
	probs := uncertain.PaperCatalogProbs()
	var p pdf.PDF
	var err error
	switch kind {
	case 1:
		p, err = pdf.NewTruncGaussian(region, 0, 0)
	case 2:
		p, err = pdf.NewGrid(region, 2, 3, []float64{1, 2, 3, 4, 5, 6})
	case 3:
		p, err = pdf.NewDisc(c, hx, 12)
	default:
		p = pdf.MustUniform(region)
	}
	if err != nil {
		t.Fatal(err)
	}
	switch kind {
	case 4:
		probs = uncertain.DefaultCatalogProbs(20)
	case 5:
		probs = append(probs, 0.05, 0.95)
	}
	o, err := uncertain.NewObject(id, p, probs)
	if err != nil {
		t.Fatal(err)
	}
	if kind == 6 {
		other, err := uncertain.NewCatalog(pdf.MustUniform(region.Translate(geom.Vec{X: 1, Y: 0})), probs)
		if err != nil {
			t.Fatal(err)
		}
		o.Catalog = uncertain.RestoreCatalog(other.Bounds())
	}
	return o, kind == 0
}

// leafTestWorld draws n objects of every kind in rotation over a
// 1000×1000 square. With aligned set, centres and half extents are
// integers, so region edges, bound lines and query edges meet exactly.
func leafTestWorld(t testing.TB, n int, seed int64, aligned bool) ([]*uncertain.Object, map[uncertain.ID]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]*uncertain.Object, n)
	leaf := make(map[uncertain.ID]bool, n)
	for i := range objs {
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		hx, hy := 3+rng.Float64()*25, 3+rng.Float64()*25
		if aligned {
			c = geom.Pt(math.Round(c.X), math.Round(c.Y))
			hx, hy = math.Round(hx), math.Round(hy)
		}
		var isLeaf bool
		objs[i], isLeaf = leafTestObject(t, uncertain.ID(i), i%leafKinds, c, hx, hy)
		leaf[uncertain.ID(i)] = isLeaf
	}
	return objs, leaf
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func rectBitsEqual(a, b geom.Rect) bool {
	return bitsEqual(a.Lo.X, b.Lo.X) && bitsEqual(a.Lo.Y, b.Lo.Y) && bitsEqual(a.Hi.X, b.Hi.X) && bitsEqual(a.Hi.Y, b.Hi.Y)
}

// leafClosedForm is what refineSurvivors computes for a leaf record in
// closed form: the qualifier over the rectangle and its uniform
// marginals, held in scratch.
func leafClosedForm(oq *ObjectQualifier, region geom.Rect) float64 {
	sc := acquireScratch()
	defer releaseScratch(sc)
	sc.ux = pdf.UniformOn(region.Lo.X, region.Hi.X)
	sc.uy = pdf.UniformOn(region.Lo.Y, region.Hi.Y)
	return oq.closedForm(region, &sc.ux, &sc.uy, ObjectEvalConfig{}.withDefaults(), sc)
}

// checkLeafRecords holds e's current state to the leaf-record
// invariant (engineState.irregular) against leaf, the test's own
// record of which ids are leaf records: the set holds exactly the
// other ids; a leaf record's rows computed from its rectangle are its
// catalog rows and its stored PTI payload rows, and its rectangle is
// its region, bit for bit; and its closed form from the rectangle is
// ObjectQualifier.Qualify of its pdf, bit for bit.
func checkLeafRecords(t *testing.T, label string, e *Engine, leaf map[uncertain.ID]bool) {
	t.Helper()
	st := e.state.Load()
	probs := st.uncIdx.Probs()
	if st.objects.Len() != len(leaf) {
		t.Fatalf("%s: table holds %d objects, want %d", label, st.objects.Len(), len(leaf))
	}
	irregular := 0
	for id, isLeaf := range leaf {
		o, ok := st.objects.Get(id)
		if !ok {
			t.Fatalf("%s: object %d missing from the table", label, id)
		}
		if st.inTable(id) == isLeaf {
			t.Fatalf("%s: object %d in the id set = %v, want %v", label, id, st.inTable(id), !isLeaf)
		}
		if !isLeaf {
			irregular++
			continue
		}
		cat := uncertain.UniformCatalog(nil, o.Region(), probs)
		got, want := cat.Bounds(), o.Catalog.Bounds()
		if len(got) != len(want) {
			t.Fatalf("%s: object %d: %d computed rows, catalog has %d", label, id, len(got), len(want))
		}
		for i := range got {
			if !sameBound(got[i], want[i]) {
				t.Fatalf("%s: object %d row %d computed %+v, catalog %+v", label, id, i, got[i], want[i])
			}
		}
	}
	if st.irregular.Len() != irregular {
		t.Fatalf("%s: id set holds %d ids, want %d", label, st.irregular.Len(), irregular)
	}

	all := geom.Rect{Lo: geom.Pt(math.Inf(-1), math.Inf(-1)), Hi: geom.Pt(math.Inf(1), math.Inf(1))}
	leaves := 0
	_, err := st.uncIdx.RangeLeavesCounted(all, func(en rtree.Entry, aux []float64) bool {
		id := uncertain.ID(en.Ref)
		if !leaf[id] {
			return true
		}
		leaves++
		o, _ := st.objects.Get(id)
		if !rectBitsEqual(en.Rect, o.Region()) {
			t.Fatalf("%s: object %d leaf rectangle %v, region %v", label, id, en.Rect, o.Region())
		}
		for i, p := range probs {
			if got, want := uncertain.UniformBound(en.Rect, p), pti.StoredRow(aux, i, p); !sameBound(got, want) {
				t.Fatalf("%s: object %d row %d computed %+v, stored %+v", label, id, i, got, want)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaves != len(leaf)-irregular {
		t.Fatalf("%s: %d leaf records in the PTI, want %d", label, leaves, len(leaf)-irregular)
	}

	// The closed form, against a uniform and a Gaussian issuer placed
	// over each leaf record so the probabilities are not all 0 or 1.
	n := 0
	for id, isLeaf := range leaf {
		if !isLeaf || n == 40 {
			continue
		}
		n++
		o, _ := st.objects.Get(id)
		r := o.Region()
		c := geom.Pt(r.Lo.X+0.3*r.Width(), r.Hi.Y-0.2*r.Height())
		issuers := []pdf.PDF{pdf.MustUniform(geom.RectCentered(c, 12, 18))}
		if g, err := pdf.NewTruncGaussian(geom.RectCentered(c, 20, 15), 0, 0); err == nil {
			issuers = append(issuers, g) // not at huge coordinates, where the region rounds to a line
		}
		for _, iss := range issuers {
			oq := NewObjectQualifier(iss, 9, 14)
			if got, want := leafClosedForm(oq, r), oq.Qualify(o.PDF, ObjectEvalConfig{}); !bitsEqual(got, want) {
				t.Fatalf("%s: object %d closed form from the rectangle %v, from the pdf %v", label, id, got, want)
			}
		}
	}
}

// TestLeafRecordMatchesTable holds the leaf-record id set to the table
// after a bulk load, after every commit of a random op stream — batch
// inserts, replaces and deletes, the single mutators, a replace the
// index rejects and rolls back — and across Open over a checkpoint plus
// a WAL tail, with every object kind side by side.
func TestLeafRecordMatchesTable(t *testing.T) {
	objs, leaf := leafTestWorld(t, 350, 31, false)
	bulk, err := NewEngine(nil, objs, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkLeafRecords(t, "bulk load", bulk, leaf)

	rng := rand.New(rand.NewSource(32))
	nextID := uncertain.ID(len(objs))
	draw := func(id uncertain.ID) (*uncertain.Object, bool) {
		c := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		return leafTestObject(t, id, rng.Intn(leafKinds), c, 3+rng.Float64()*25, 3+rng.Float64()*25)
	}
	anyID := func() uncertain.ID {
		for id := range leaf {
			return id
		}
		return -1
	}
	churn := func(label string, e *Engine, rounds int) {
		t.Helper()
		for r := range rounds {
			switch r % 5 {
			case 0, 1, 2: // a batch of upserts (new ids and replaces) and deletes
				var batch []Update
				want := make(map[uncertain.ID]bool, len(leaf))
				for id, v := range leaf {
					want[id] = v
				}
				for range 20 {
					switch x := rng.Intn(4); {
					case x == 0:
						o, isLeaf := draw(nextID)
						nextID++
						batch = append(batch, Update{Op: OpUpsertObject, Object: o})
						want[o.ID] = isLeaf
					case x == 1 && len(want) > 0:
						id := anyID()
						batch = append(batch, Update{Op: OpDeleteObject, ID: id})
						delete(want, id)
						delete(leaf, id) // anyID must not hand it out again
					default:
						id := anyID()
						o, isLeaf := draw(id)
						batch = append(batch, Update{Op: OpUpsertObject, Object: o})
						want[id] = isLeaf
					}
				}
				applyOK(t, e, batch)
				leaf = want
			case 3: // the single mutators
				o, isLeaf := draw(nextID)
				nextID++
				if err := e.InsertObject(o); err != nil {
					t.Fatal(err)
				}
				leaf[o.ID] = isLeaf
				id := anyID()
				if ok, err := e.DeleteObject(id); err != nil || !ok {
					t.Fatalf("DeleteObject(%d) = %v, %v", id, ok, err)
				}
				delete(leaf, id)
				id = anyID()
				o, isLeaf = draw(id)
				if err := e.ReplaceObject(o); err != nil {
					t.Fatal(err)
				}
				leaf[id] = isLeaf
			default: // a replace the index rejects: the old object stays
				id := anyID()
				old, _ := e.Object(id)
				bad, err := uncertain.NewObject(id, pdf.MustUniform(old.Region()), uncertain.DefaultCatalogProbs(4))
				if err != nil {
					t.Fatal(err)
				}
				if err := e.ReplaceObject(bad); err == nil {
					t.Fatal("replace with a catalog missing the index values succeeded")
				}
			}
			checkLeafRecords(t, label, e, leaf)
		}
	}
	churn("bulk churn", bulk, 15)

	dir := t.TempDir()
	durable, err := Open(dir, durTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	load := make([]Update, len(objs))
	for i, o := range objs {
		load[i] = Update{Op: OpUpsertObject, Object: o}
	}
	applyOK(t, durable, load)
	_, leaf = leafTestWorld(t, 350, 31, false)
	churn("durable churn", durable, 5)
	if _, err := durable.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	churn("after checkpoint", durable, 5)
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
	checkLeafRecords(t, "checkpoint + WAL tail", reopened, leaf)
}

// FuzzLeafRecord holds one uniform object's leaf record to its table
// row over arbitrary rectangles — zero width, negative, subnormal and
// huge coordinates: the object is a leaf record, its rows computed from
// the rectangle are its catalog rows and its stored PTI rows, its
// closed form from the rectangle is Qualify of its pdf, and a full
// Evaluate of a one-object engine (the leaf path) is EvaluateOnly (the
// table path) at every threshold, bit for bit.
func FuzzLeafRecord(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 10.0, 4.0, 6.0, 5.0)
	f.Add(5.0, 0.0, 5.0, 10.0, 5.0, 3.0, 2.0)              // zero width
	f.Add(3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 1.0)               // a point
	f.Add(-30.0, -20.0, -10.0, -5.0, -22.0, -9.0, 7.0)     // negative
	f.Add(5e-324, 0.0, 1e-323, 2.2e-308, 0.0, 0.0, 1e-300) // subnormal
	f.Add(-1e300, -1e300, 1e300, 1e300, 0.0, 0.0, 1e299)   // huge
	f.Add(-0.0, -0.0, 0.5, 0.25, 0.0, 0.1, 0.3)            // negative zero
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, cx, cy, half float64) {
		for _, v := range []float64{x0, y0, x1, y1, cx, cy, half} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		half = math.Abs(half)
		if half == 0 {
			return
		}
		region := geom.Rect{Lo: geom.Pt(min(x0, x1), min(y0, y1)), Hi: geom.Pt(max(x0, x1), max(y0, y1))}
		issRegion := geom.RectCentered(geom.Pt(cx, cy), half, half)
		if math.IsInf(issRegion.Lo.X, 0) || math.IsInf(issRegion.Lo.Y, 0) || math.IsInf(issRegion.Hi.X, 0) || math.IsInf(issRegion.Hi.Y, 0) {
			return
		}
		probs := uncertain.PaperCatalogProbs()
		o, err := uncertain.NewObject(1, pdf.MustUniform(region), probs)
		if err != nil {
			t.Fatal(err)
		}
		if !isLeafRecord(o, probs) {
			t.Fatalf("uniform object over %v is not a leaf record", region)
		}
		e, err := NewEngine(nil, []*uncertain.Object{o}, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		checkLeafRecords(t, "fuzz", e, map[uncertain.ID]bool{1: true})

		iss, err := uncertain.NewObject(-1, pdf.MustUniform(issRegion), probs)
		if err != nil {
			t.Fatal(err)
		}
		oq := NewObjectQualifier(iss.PDF, half, half/2)
		if got, want := leafClosedForm(oq, region), oq.Qualify(o.PDF, ObjectEvalConfig{}); !bitsEqual(got, want) {
			t.Fatalf("closed form from the rectangle %v, from the pdf %v", got, want)
		}
		snap := e.Snapshot()
		defer snap.Close()
		for _, qp := range []float64{0, 0.2, 0.5, 0.9} {
			for _, opts := range []EvalOptions{{}, {DisableIndexPruning: true}} {
				req := Request{Kind: KindUncertain, Issuer: iss, W: half, H: half / 2, Threshold: qp, Options: opts}
				full, err := snap.Evaluate(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				only, err := snap.EvaluateOnly(context.Background(), req, []uncertain.ID{1})
				if err != nil {
					t.Fatal(err)
				}
				want, got := stripDurations(only.Result), stripDurations(full.Result)
				got.Cost.NodeAccesses = 0
				same := want.Cost == got.Cost && len(want.Matches) == len(got.Matches)
				for i := 0; same && i < len(got.Matches); i++ {
					same = got.Matches[i].ID == want.Matches[i].ID && bitsEqual(got.Matches[i].P, want.Matches[i].P)
				}
				if !same {
					t.Fatalf("qp=%g %+v: leaf path %+v != table path %+v", qp, opts, got, want)
				}
			}
		}
	})
}
