package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/index/pti"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

func TestPExpandedQueryAtZeroIsMinkowski(t *testing.T) {
	u0 := geom.Rect{Lo: geom.Pt(100, 100), Hi: geom.Pt(150, 160)}
	iss, err := uncertain.NewObject(-1, pdf.MustUniform(u0), uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	b, ok := iss.Catalog.MaxLE(0)
	if !ok {
		t.Fatal("no 0-bound")
	}
	w, h := 25.0, 35.0
	pe := PExpandedQuery(b, w, h)
	mink := geom.ExpandedQuery(u0, w, h)
	if !pe.ApproxEqual(mink) {
		t.Fatalf("0-expanded query %v != Minkowski %v", pe, mink)
	}
}

func TestPExpandedQueryLemma5Geometry(t *testing.T) {
	// Uniform issuer on [0,100]^2, w=h=10, p=0.2: l0(0.2)=20, so
	// lcb(0.2) = 20-10 = 10, which is d=20 units right of lcb(0)=-10.
	u0 := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}
	iss, err := uncertain.NewObject(-1, pdf.MustUniform(u0), []float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := iss.Catalog.MaxLE(0.2)
	pe := PExpandedQuery(b, 10, 10)
	want := geom.Rect{Lo: geom.Pt(10, 10), Hi: geom.Pt(90, 90)}
	if !pe.ApproxEqual(want) {
		t.Fatalf("0.2-expanded query = %v, want %v", pe, want)
	}
}

func TestPropPExpandedQueryNesting(t *testing.T) {
	// Paper: pj >= pk iff the pj-expanded-query is enclosed by the
	// pk-expanded-query.
	u0 := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(200, 150)}
	iss := pdf.MustUniform(u0)
	rng := rand.New(rand.NewSource(101))
	f := func() bool {
		p1 := rng.Float64() / 2
		p2 := rng.Float64() / 2
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		w, h := 5+rng.Float64()*50, 5+rng.Float64()*50
		b1 := uncertain.ComputeBound(iss, p1)
		b2 := uncertain.ComputeBound(iss, p2)
		outer := PExpandedQuery(b1, w, h)
		inner := PExpandedQuery(b2, w, h)
		return outer.ContainsRect(inner)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropPExpandedQueryDefiningProperty(t *testing.T) {
	// Definition 7: a point outside the p-expanded query has
	// qualification probability < p (we verify <= p + eps via the
	// exact duality formula).
	u0 := geom.Rect{Lo: geom.Pt(50, 50), Hi: geom.Pt(250, 220)}
	issuers := []pdf.PDF{
		pdf.MustUniform(u0),
		mustGauss(t, u0),
	}
	rng := rand.New(rand.NewSource(102))
	for _, iss := range issuers {
		f := func() bool {
			p := rng.Float64()*0.8 + 0.05
			w, h := 5+rng.Float64()*60, 5+rng.Float64()*60
			b := uncertain.ComputeBound(iss, p)
			pe := PExpandedQuery(b, w, h)
			// Sample points outside pe (but within a wider halo).
			for i := 0; i < 20; i++ {
				s := geom.Pt(rng.Float64()*500-50, rng.Float64()*500-50)
				if pe.Contains(s) {
					continue
				}
				if PointQualification(iss, s, w, h) > p+1e-9 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%T: %v", iss, err)
		}
	}
}

func TestSearchRegionSelection(t *testing.T) {
	u0 := geom.RectCentered(geom.Pt(100, 100), 50, 50)
	iss, err := uncertain.NewObject(-1, pdf.MustUniform(u0), uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained: Minkowski.
	q := Query{Issuer: iss, W: 20, H: 20}
	reg, shrunk := SearchRegion(q)
	if shrunk || !reg.ApproxEqual(q.Expanded()) {
		t.Fatalf("unconstrained region = %v (shrunk=%t)", reg, shrunk)
	}
	// Constrained: strictly smaller region.
	q.Threshold = 0.5
	reg2, shrunk2 := SearchRegion(q)
	if !shrunk2 {
		t.Fatal("threshold query did not shrink")
	}
	if !q.Expanded().ContainsRect(reg2) || reg2.Area() >= q.Expanded().Area() {
		t.Fatalf("shrunk region %v not inside Minkowski %v", reg2, q.Expanded())
	}
	// Issuer without catalog: falls back to Minkowski.
	bare, err := uncertain.NewObject(-2, pdf.MustUniform(u0), nil)
	if err != nil {
		t.Fatal(err)
	}
	q3 := Query{Issuer: bare, W: 20, H: 20, Threshold: 0.5}
	reg3, shrunk3 := SearchRegion(q3)
	if shrunk3 || !reg3.ApproxEqual(q3.Expanded()) {
		t.Fatal("catalog-less issuer should fall back to Minkowski")
	}
}

func TestPruneUncertainNeverDropsAnswers(t *testing.T) {
	// Soundness: for random constrained queries, any object the
	// strategies prune must have exact probability < Qp.
	rng := rand.New(rand.NewSource(103))
	u0 := geom.RectCentered(geom.Pt(500, 500), 60, 60)
	iss, err := uncertain.NewObject(-1, pdf.MustUniform(u0), uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 400; trial++ {
		c := geom.Pt(300+rng.Float64()*400, 300+rng.Float64()*400)
		region := geom.RectCentered(c, 2+rng.Float64()*50, 2+rng.Float64()*50)
		var objPDF pdf.PDF = pdf.MustUniform(region)
		if trial%3 == 1 {
			objPDF = mustGauss(t, region)
		}
		obj, err := uncertain.NewObject(uncertain.ID(trial), objPDF, uncertain.PaperCatalogProbs())
		if err != nil {
			t.Fatal(err)
		}
		qp := 0.05 + rng.Float64()*0.9
		q := Query{Issuer: iss, W: 30 + rng.Float64()*100, H: 30 + rng.Float64()*100, Threshold: qp}
		plan := newQueryPlan(q, EvalOptions{}, true)
		rows := storedRows(obj.Catalog)
		verdict := pruneRegion(&plan, obj.Region(), &rows, false, StrategySet{})
		if verdict == KeepCandidate {
			continue
		}
		exact := ObjectQualification(iss.PDF, obj.PDF, q.W, q.H, ObjectEvalConfig{}, nil)
		if exact > qp+1e-9 {
			t.Fatalf("trial %d: verdict %d pruned object with p=%g > qp=%g",
				trial, verdict, exact, qp)
		}
	}
}

func TestPruneUncertainStrategyAttribution(t *testing.T) {
	u0 := geom.RectCentered(geom.Pt(0, 0), 10, 10) // U0 = [-10,10]^2
	iss, err := uncertain.NewObject(-1, pdf.MustUniform(u0), uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	w, h := 10.0, 10.0
	// Expanded query = [-20,20]^2.
	// Object A: region [18,30]x[-5,5]; overlap [18,20] is a thin right
	// sliver holding < 0.2 of its mass -> Strategy 1 at qp=0.3.
	objA, err := uncertain.NewObject(1,
		pdf.MustUniform(geom.Rect{Lo: geom.Pt(18, -5), Hi: geom.Pt(30, 5)}),
		uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Issuer: iss, W: w, H: h, Threshold: 0.3}
	plan := newQueryPlan(q, EvalOptions{}, true)
	rowsA := storedRows(objA.Catalog)
	if v := pruneRegion(&plan, objA.Region(), &rowsA, false, StrategySet{}); v != PrunedStrategy1 {
		t.Fatalf("sliver object verdict = %d, want Strategy1", v)
	}
	// With Strategy 1 disabled, some other strategy (or none) applies,
	// but the object must not be *kept* incorrectly as a match — it is
	// simply refined. Here Strategy 3 should also catch it (dmin ~ 0.1,
	// qmin <= 1).
	if v := pruneRegion(&plan, objA.Region(), &rowsA, false, StrategySet{DisableStrategy1: true}); v == KeepCandidate {
		exact := ObjectQualification(iss.PDF, objA.PDF, w, h, ObjectEvalConfig{}, nil)
		if exact >= 0.3 {
			t.Fatalf("object kept with p=%g", exact)
		}
	}
	// Object B: outside the search region but inside Minkowski:
	// Strategy 2. The 0.3-expanded query for U0=[-10,10]^2, w=10:
	// l0(0.3) = -4, so lcb = -14; region beyond that but inside 20.
	objB, err := uncertain.NewObject(2,
		pdf.MustUniform(geom.Rect{Lo: geom.Pt(-19.5, -5), Hi: geom.Pt(-16, 5)}),
		uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	rowsB := storedRows(objB.Catalog)
	v := pruneRegion(&plan, objB.Region(), &rowsB, false,
		StrategySet{DisableStrategy1: true})
	if v != PrunedStrategy2 {
		t.Fatalf("outside-search object verdict = %d, want Strategy2", v)
	}
	// Object C: disjoint from the Minkowski sum entirely.
	objC, err := uncertain.NewObject(3,
		pdf.MustUniform(geom.Rect{Lo: geom.Pt(100, 100), Hi: geom.Pt(110, 110)}),
		uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	rowsC := storedRows(objC.Catalog)
	if v := pruneRegion(&plan, objC.Region(), &rowsC, false, StrategySet{}); v != PrunedEmptyOverlap {
		t.Fatalf("disjoint object verdict = %d, want EmptyOverlap", v)
	}
}

func TestMassUpperBound(t *testing.T) {
	region := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}
	obj, err := uncertain.NewObject(1, pdf.MustUniform(region), uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	// Overlap = right sliver [85,100]: mass 0.15; the tightest catalog
	// bound beyond which it lies is r(0.2) at x=80 (0.2-bound), since
	// r(0.1)=90 does not clear [85,...]. The function scans ascending
	// and returns the smallest clearing value: 0.2. (qmin = 1 against
	// qp = +Inf never stops the scan early.)
	reg := geom.Rect{Lo: geom.Pt(85, 0), Hi: geom.Pt(100, 100)}
	rows := storedRows(obj.Catalog)
	inf := math.Inf(1)
	if got := massUpperBound(&rows, 0, reg, 1, inf); !approx(got, 0.2, 1e-12) {
		t.Fatalf("massUpperBound = %g, want 0.2", got)
	}
	// Central overlap [30,70]^2: bounds with p > 0.5 have crossed
	// lines but stay valid upper bounds; the smallest clearing row is
	// p=0.7 (its Right line sits at x=30, and the region lies right of
	// it, certifying mass <= 0.7 — loose but sound, since the true
	// mass is 0.16).
	reg = geom.Rect{Lo: geom.Pt(30, 30), Hi: geom.Pt(70, 70)}
	if got := massUpperBound(&rows, 0, reg, 1, inf); !approx(got, 0.7, 1e-12) {
		t.Fatalf("central massUpperBound = %g, want 0.7", got)
	}
	// Empty catalog: 1.
	empty := storedRows(uncertain.Catalog{})
	if got := massUpperBound(&empty, 0, reg, 1, inf); got != 1 {
		t.Fatalf("empty-catalog bound = %g, want 1", got)
	}
}

func TestKernelUpperBound(t *testing.T) {
	u0 := geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(100, 100)}
	iss, err := uncertain.NewObject(-1, pdf.MustUniform(u0), uncertain.PaperCatalogProbs())
	if err != nil {
		t.Fatal(err)
	}
	w, h := 10.0, 10.0
	plan := newQueryPlan(Query{Issuer: iss, W: w, H: h}, EvalOptions{}, true)
	// A region far outside every p-expanded query: bound 0.
	far := geom.Rect{Lo: geom.Pt(500, 500), Hi: geom.Pt(510, 510)}
	if got := plan.kernelUpperBound(far); got != 0 {
		t.Fatalf("far kernel bound = %g, want 0", got)
	}
	// A region deep inside: the first row whose p-expanded query is
	// empty still certifies Q < p everywhere (a 2w-wide window cannot
	// capture p of the issuer mass when l0(p) - r0(p) > 2w). Here the
	// 0.7-expanded query is the first empty one, so the bound is 0.7
	// (loose but sound: the true kernel maximum is 0.04).
	center := geom.RectCentered(geom.Pt(50, 50), 5, 5)
	if got := plan.kernelUpperBound(center); !approx(got, 0.7, 1e-12) {
		t.Fatalf("central kernel bound = %g, want 0.7", got)
	}
	// A region just outside the 0.3-expanded query but inside 0.2's:
	// 0.3-expanded left edge = l0(0.3)-w = 30-10 = 20;
	// 0.2-expanded left edge = 20-10 = 10. Region at x in [12,18].
	strip := geom.Rect{Lo: geom.Pt(12, 40), Hi: geom.Pt(18, 60)}
	if got := plan.kernelUpperBound(strip); !approx(got, 0.3, 1e-12) {
		t.Fatalf("strip kernel bound = %g, want 0.3", got)
	}
	// Verify against the exact kernel: Q must stay below the bound.
	kernel := DualityKernel(iss.PDF, w, h)
	maxQ := 0.0
	for x := strip.Lo.X; x <= strip.Hi.X; x += 0.5 {
		for y := strip.Lo.Y; y <= strip.Hi.Y; y += 0.5 {
			if q := kernel(geom.Pt(x, y)); q > maxQ {
				maxQ = q
			}
		}
	}
	if maxQ > 0.3 {
		t.Fatalf("kernel reaches %g inside strip bounded by 0.3", maxQ)
	}
}

// eagerPruneRegion is the reference pruneRegion reads its rows
// against: every catalog row present, Strategy 1 on row M, Strategy 2,
// then Strategy 3 from the tightest mass bound over all object rows and
// the tightest kernel bound with every issuer q-expanded query rebuilt.
func eagerPruneRegion(q Query, region geom.Rect, cat uncertain.Catalog, expanded, searchReg geom.Rect, ss StrategySet) PruneVerdict {
	reg := region.Intersect(expanded)
	if reg.Empty() {
		return PrunedEmptyOverlap
	}
	qp := q.Threshold
	if qp <= 0 {
		return KeepCandidate
	}
	if !ss.DisableStrategy1 {
		if b, ok := cat.MaxLE(qp); ok && beyondBound(reg, b) {
			return PrunedStrategy1
		}
	}
	if !ss.DisableStrategy2 && (searchReg.Empty() || !searchReg.Intersects(region)) {
		return PrunedStrategy2
	}
	if !ss.DisableStrategy3 {
		dmin, qmin := 1.0, 1.0
		for _, b := range cat.Bounds() {
			if beyondBound(reg, b) {
				dmin = b.P
				break
			}
		}
		for _, b := range q.Issuer.Catalog.Bounds() {
			if pe := PExpandedQuery(b, q.W, q.H); pe.Empty() || !pe.Intersects(reg) {
				qmin = b.P
				break
			}
		}
		if qmin*dmin < qp {
			return PrunedStrategy3
		}
	}
	return KeepCandidate
}

// lazyPruneRects draws n leaf rectangles around the expanded query of
// (iss, w, h), on integer coordinates so edges meet exactly: a quarter
// touch one side of the expanded query from outside or inside, every
// fifth is zero width or height, the rest lie anywhere from well
// inside to just outside.
func lazyPruneRects(rng *rand.Rand, expanded geom.Rect, n int) []geom.Rect {
	rects := make([]geom.Rect, n)
	for i := range rects {
		hx, hy := float64(rng.Intn(80)), float64(rng.Intn(80))
		switch i % 5 {
		case 0:
			hx = 0
		case 1:
			hy = 0
		}
		c := geom.Pt(
			math.Round(expanded.Lo.X-60+rng.Float64()*(expanded.Width()+120)),
			math.Round(expanded.Lo.Y-60+rng.Float64()*(expanded.Height()+120)))
		r := geom.Rect{Lo: geom.Pt(c.X-hx, c.Y-hy), Hi: geom.Pt(c.X+hx, c.Y+hy)}
		if i%4 == 3 {
			// Touch one side of the expanded query: from outside
			// (a zero-width overlap) or from inside.
			dx, dy := 2*hx, 2*hy
			switch rng.Intn(4) {
			case 0:
				r.Lo.X = expanded.Hi.X - float64(rng.Intn(2))*dx
				r.Hi.X = r.Lo.X + dx
			case 1:
				r.Hi.X = expanded.Lo.X + float64(rng.Intn(2))*dx
				r.Lo.X = r.Hi.X - dx
			case 2:
				r.Lo.Y = expanded.Hi.Y - float64(rng.Intn(2))*dy
				r.Hi.Y = r.Lo.Y + dy
			default:
				r.Hi.Y = expanded.Lo.Y + float64(rng.Intn(2))*dy
				r.Lo.Y = r.Hi.Y - dy
			}
		}
		rects[i] = r
	}
	return rects
}

// TestLazyPruneMatchesEager holds the pruning of leaf records, whose
// rows pruneRegion reads on demand, to eagerPruneRegion over their full
// catalogs, over random issuers (uniform and Gaussian; the paper's ten
// catalog values, 21 — more than the plan holds q-expanded queries
// for —, and rows restored from jittered regions, whose queries are not
// nested), thresholds on and between catalog values, and rectangles
// that are zero width or touch the expanded query's boundary.
//
// With {DisableIndexPruning: true} every rectangle goes through
// pruneRegion with no row tested, and its verdict must be the
// reference's. With {} the index decides first, as the threshold search
// does: a rectangle outside the search region or pruned by the leaf test
// on row M — the index's Strategies 2 and 1, applied whatever the
// ablation — must be one the reference prunes by Strategy 1, 2 or the
// empty overlap (and is counted under that verdict); one the index
// admits goes through pruneRegion with row M tested, and its verdict
// must be the reference's. Under
// both, every verdict must be reached, and an engine over the same
// rectangles must count the candidates and verdicts the test tallied.
func TestLazyPruneMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	thresholds := []float64{0.05, 0.1, 0.35, 0.5, 0.55, 0.7, 0.95, 1}
	ablations := []StrategySet{{}, {DisableStrategy1: true}, {DisableStrategy1: true, DisableStrategy2: true}}
	allOpts := []EvalOptions{{}, {DisableIndexPruning: true}}
	label := func(o EvalOptions) string {
		return fmt.Sprintf("DisableIndexPruning=%v %+v", o.DisableIndexPruning, o.Strategies)
	}
	reached := make([]map[PruneVerdict]int, len(allOpts))
	for i := range reached {
		reached[i] = map[PruneVerdict]int{}
	}
	nested := map[bool]int{}
	for trial := range 48 {
		c := geom.Pt(float64(300+rng.Intn(400)), float64(300+rng.Intn(400)))
		issRegion := geom.RectCentered(c, float64(20+rng.Intn(130)), float64(20+rng.Intn(130)))
		issProbs := uncertain.PaperCatalogProbs()
		if trial%4 == 3 {
			issProbs = uncertain.DefaultCatalogProbs(20)
		}
		issPDF := pdf.PDF(pdf.MustUniform(issRegion))
		if trial%2 == 1 {
			issPDF = mustGauss(t, issRegion)
		}
		iss, err := uncertain.NewObject(-1, issPDF, issProbs)
		if err != nil {
			t.Fatal(err)
		}
		if trial%4 == 2 {
			// Rows restored from jittered regions: their q-expanded
			// queries are not nested.
			rows := iss.Catalog.Bounds()
			jittered := make([]uncertain.Bound, len(rows))
			for i, b := range rows {
				jittered[i] = uncertain.ComputeBound(issPDF, b.P)
				if i%2 == 1 {
					jittered[i] = uncertain.UniformBound(issRegion.Translate(geom.Vec{X: float64(rng.Intn(41) - 20), Y: float64(rng.Intn(41) - 20)}), b.P)
				}
			}
			iss.Catalog = uncertain.RestoreCatalog(jittered)
		}
		w, h := float64(10+rng.Intn(110)), float64(10+rng.Intn(110))
		rects := lazyPruneRects(rng, Query{Issuer: iss, W: w, H: h}.Expanded(), 200)
		objs := make([]*uncertain.Object, len(rects))
		for i, r := range rects {
			if objs[i], err = uncertain.NewObject(uncertain.ID(i), pdf.MustUniform(r), uncertain.PaperCatalogProbs()); err != nil {
				t.Fatal(err)
			}
		}
		e, err := NewEngine(nil, objs, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st := e.state.Load()
		probs := st.uncIdx.Probs()
		snap := e.Snapshot()
		for _, qp := range thresholds {
			q := Query{Issuer: iss, W: w, H: h, Threshold: qp}
			for oi, opts := range allOpts {
				for _, ss := range ablations {
					opts.Strategies = ss
					plan := newQueryPlan(q, opts, true)
					nested[plan.kernelNested]++
					row, m, rowOK := st.uncIdx.MRow(qp)
					indexPruning := !opts.DisableIndexPruning
					var want Cost
					for i, r := range rects {
						eager := eagerPruneRegion(q, r, objs[i].Catalog, plan.expanded, plan.searchReg, ss)
						rows := leafRows(r, probs)
						visited := !plan.searchReg.Empty() && plan.searchReg.Intersects(r)
						var got PruneVerdict
						switch {
						case indexPruning && (!visited || rowOK && pti.BoundPrunes(r, uncertain.UniformBound(r, m), plan.expanded)):
							// Dropped by the index, whatever the
							// ablation: the reference with Strategies 1
							// and 2 must prune it by one of them.
							got = eagerPruneRegion(q, r, objs[i].Catalog, plan.expanded, plan.searchReg, StrategySet{})
							if got == KeepCandidate || got == PrunedStrategy3 {
								t.Fatalf("trial %d qp=%g %s: %v dropped by the index (visited %v, row %d), reference verdict %d",
									trial, qp, label(opts), r, visited, row, got)
							}
						default:
							got = pruneRegion(&plan, r, &rows, indexPruning && rowOK, ss)
							if got != eager {
								t.Fatalf("trial %d qp=%g %s: %v lazy verdict %d, reference %d", trial, qp, label(opts), r, got, eager)
							}
							if visited {
								want.Candidates++
								switch got {
								case PrunedStrategy1:
									want.PrunedStrategy1++
								case PrunedStrategy2:
									want.PrunedStrategy2++
								case PrunedStrategy3:
									want.PrunedStrategy3++
								case KeepCandidate:
									want.Refined++
								}
							}
						}
						if ss == (StrategySet{}) {
							reached[oi][got]++
						}
					}
					res, err := snap.Evaluate(context.Background(), Request{Kind: KindUncertain, Issuer: iss, W: w, H: h, Threshold: qp, Options: opts})
					if err != nil {
						t.Fatal(err)
					}
					gc := res.Cost
					if gc.Candidates != want.Candidates || gc.Refined != want.Refined || gc.PrunedStrategy1 != want.PrunedStrategy1 ||
						gc.PrunedStrategy2 != want.PrunedStrategy2 || gc.PrunedStrategy3 != want.PrunedStrategy3 {
						t.Fatalf("trial %d qp=%g %s: engine counted %+v, want %+v", trial, qp, label(opts), gc, want)
					}
				}
			}
		}
		snap.Close()
	}
	if nested[true] == 0 || nested[false] == 0 {
		t.Errorf("plans with nested / other q-expanded queries: %d / %d, want both", nested[true], nested[false])
	}
	for oi, opts := range allOpts {
		for _, v := range []PruneVerdict{KeepCandidate, PrunedStrategy1, PrunedStrategy2, PrunedStrategy3, PrunedEmptyOverlap} {
			if reached[oi][v] == 0 {
				t.Errorf("%s: verdict %d never reached (%v)", label(opts), v, reached[oi])
			}
		}
		t.Logf("%s: verdicts %v", label(opts), reached[oi])
	}
}
