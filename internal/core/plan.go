package core

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/mcbound"
	"repro/internal/pdf"
)

// This file implements prepared query evaluation: everything about a
// query that does not depend on the candidate object — the Minkowski
// sum, the p-expanded search region, the issuer marginals' shifted CDF
// breakpoints, and the duality-kernel axis data — is computed once and
// reused across every candidate. Before this, each candidate's
// refinement re-derived and re-sorted the issuer breakpoint list
// (shiftedBreakpoints in qualification.go), which dominated the
// allocation profile of the closed-form refinement path.

// evalScratch holds per-goroutine scratch buffers reused across the
// candidates of a query. Instances cycle through a sync.Pool: one
// acquire per query (or per worker), not per candidate.
type evalScratch struct {
	cuts []float64
	// cands is the range filter's survivor buffer.
	cands []candidate
	// ux, uy are a leaf record's marginals for closed-form refinement.
	ux, uy pdf.UniformMarginal
}

var scratchPool = sync.Pool{
	New: func() any {
		return &evalScratch{cuts: make([]float64, 0, 64)}
	},
}

func acquireScratch() *evalScratch   { return scratchPool.Get().(*evalScratch) }
func releaseScratch(sc *evalScratch) { scratchPool.Put(sc) }

// axisPlan is the prepared issuer-side state of the Lemma 4 axis factor
//
//	∫ fObj(x) · g(x) dx,  g(x) = FIss(x+w) − FIss(x−w)
//
// for one axis: the issuer marginal, whether its CDF is piecewise
// linear (exact partial-moment integration applies), and the sorted
// breakpoints of g — the issuer CDF breakpoints shifted by ±w. The
// shifted list depends only on the query, so it is built and sorted
// once; per candidate it is merely clipped to the integration interval
// by binary search.
type axisPlan struct {
	issM    pdf.Marginal
	w       float64
	linear  bool
	shifted []float64 // ascending breakpoints of g
}

func newAxisPlan(issM pdf.Marginal, w float64) axisPlan {
	ap := axisPlan{issM: issM, w: w}
	var points []float64
	if pl, ok := issM.(pdf.PiecewiseLinearCDF); ok {
		ap.linear = true
		points = pl.CDFBreakpoints()
	} else {
		// Smooth issuer CDF (truncated Gaussian): g has kinks only at
		// the support endpoints shifted by ±w; composite quadrature
		// between them preserves spectral accuracy.
		lo, hi := issM.Bounds()
		points = []float64{lo, hi}
	}
	ap.shifted = make([]float64, 0, 2*len(points))
	for _, p := range points {
		ap.shifted = append(ap.shifted, p-ap.w, p+ap.w)
	}
	sort.Float64s(ap.shifted)
	return ap
}

// cutsInto fills dst with {a} ∪ (shifted ∩ (a,b)) ∪ {b}, ascending,
// without sorting: shifted is already ordered, so the interior span is
// located by two binary searches.
func (ap *axisPlan) cutsInto(dst []float64, a, b float64) []float64 {
	dst = append(dst[:0], a)
	lo := sort.Search(len(ap.shifted), func(i int) bool { return ap.shifted[i] > a })
	hi := sort.Search(len(ap.shifted), func(i int) bool { return ap.shifted[i] >= b })
	dst = append(dst, ap.shifted[lo:hi]...)
	return append(dst, b)
}

// factor computes the axis factor over [a, b] using the prepared
// breakpoints. sc provides the cut buffer.
func (ap *axisPlan) factor(objM pdf.Marginal, a, b float64, sc *evalScratch) float64 {
	if b <= a {
		return 0
	}
	g := func(x float64) float64 { return ap.issM.CDF(x+ap.w) - ap.issM.CDF(x-ap.w) }
	cuts := ap.cutsInto(sc.cuts, a, b)
	sc.cuts = cuts[:0]

	if ap.linear {
		var total float64
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if hi <= lo {
				continue
			}
			// g is linear on the open piece (lo, hi): recover the line
			// g(x) = alpha + beta*x from two interior samples. Interior
			// points matter: a degenerate (point-mass) issuer marginal
			// makes the CDF a step, so g jumps exactly at the piece
			// boundaries and endpoint interpolation would integrate the
			// wrong line.
			x1 := lo + (hi-lo)/3
			x2 := hi - (hi-lo)/3
			g1, g2 := g(x1), g(x2)
			beta := (g2 - g1) / (x2 - x1)
			alpha := g1 - beta*x1
			m0, m1 := objM.PartialMoments(lo, hi)
			total += alpha*m0 + beta*m1
		}
		return total
	}

	var total float64
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		total += gaussLegendre(func(x float64) float64 { return objM.At(x) * g(x) }, lo, hi)
	}
	return total
}

// glOrder is the Gauss–Legendre order of the smooth-issuer axis factor
// per piece between breakpoints: exact for polynomials of degree below
// 48, and spectrally accurate for the smooth Gaussian kernel.
const glOrder = 24

// glNodes and glWeights are the glOrder-point rule on [-1, 1],
// computed once; every refinement reads them without a lock.
var glNodes, glWeights = gaussLegendreRule(glOrder)

// gaussLegendre integrates f over [a, b], a < b, with the
// glOrder-point Gauss–Legendre rule.
func gaussLegendre(f func(float64) float64, a, b float64) float64 {
	c, hw := (a+b)/2, (b-a)/2
	var sum float64
	for i, x := range glNodes {
		sum += glWeights[i] * f(c+hw*x)
	}
	return sum * hw
}

// gaussLegendreRule returns the nodes (ascending) and weights of the
// n-point Gauss–Legendre rule on [-1, 1], computed by Newton iteration
// on the Legendre polynomial with the standard asymptotic initial
// guess.
func gaussLegendreRule(n int) (nodes, weights []float64) {
	nodes, weights = make([]float64, n), make([]float64, n)
	m := (n + 1) / 2
	for i := 0; i < m; i++ {
		// Initial guess (Abramowitz & Stegun 25.4.30 neighborhood).
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var pp float64
		for iter := 0; iter < 100; iter++ {
			p0, p1 := 1.0, 0.0
			for j := 0; j < n; j++ {
				p2 := p1
				p1 = p0
				p0 = ((2*float64(j)+1)*x*p1 - float64(j)*p2) / float64(j+1)
			}
			// p0 is P_n(x); derivative from the recurrence.
			pp = float64(n) * (x*p0 - p1) / (x*x - 1)
			dx := p0 / pp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		nodes[i] = -x
		nodes[n-1-i] = x
		weights[i] = 2 / ((1 - x*x) * pp * pp)
		weights[n-1-i] = weights[i]
	}
	return nodes, weights
}

// ObjectQualifier is the prepared form of ObjectQualification: it
// captures the issuer-side invariants of one query (expanded support,
// marginal axis plans) so that qualifying many candidate objects does
// not repeat that work. A qualifier is immutable after construction and
// safe for concurrent use by multiple goroutines.
type ObjectQualifier struct {
	issuer    pdf.PDF
	w, h      float64
	expSup    geom.Rect // issuer.Support() ⊕ query rectangle
	separable bool
	ax, ay    axisPlan
}

// NewObjectQualifier prepares qualification of candidates against the
// given issuer and query half extents.
func NewObjectQualifier(issuer pdf.PDF, w, h float64) *ObjectQualifier {
	oq := &ObjectQualifier{
		issuer: issuer,
		w:      w,
		h:      h,
		expSup: geom.ExpandedQuery(issuer.Support(), w, h),
	}
	if s, ok := issuer.(pdf.Separable); ok {
		oq.separable = true
		oq.ax = newAxisPlan(s.MarginalX(), w)
		oq.ay = newAxisPlan(s.MarginalY(), h)
	}
	return oq
}

// Qualify computes one object's qualification probability (Lemma 4).
// It is equivalent to ObjectQualification(issuer, obj, w, h, cfg, rng)
// with the qualifier's issuer and extents.
func (oq *ObjectQualifier) Qualify(obj pdf.PDF, cfg ObjectEvalConfig, rng *rand.Rand) float64 {
	sc := acquireScratch()
	defer releaseScratch(sc)
	p, _, _ := oq.qualifyThreshold(obj, 0, cfg.withDefaults(), rng, sc)
	return p
}

// QualifyThreshold is Qualify with adaptive early termination against
// the probability threshold qp (> 0; zero disables early stop). It
// additionally returns the Monte-Carlo samples drawn — zero when the
// candidate refines in closed form, the full cfg.MCSamples budget
// when sampling runs to completion — and whether a confidence bound
// terminated sampling early. See ObjectEvalConfig.Adaptive.
func (oq *ObjectQualifier) QualifyThreshold(obj pdf.PDF, qp float64, cfg ObjectEvalConfig, rng *rand.Rand) (p float64, samples int, early bool) {
	sc := acquireScratch()
	defer releaseScratch(sc)
	return oq.qualifyThreshold(obj, qp, cfg.withDefaults(), rng, sc)
}

// qualifyThreshold is the engine-internal path: cfg must already carry
// defaults and sc is the caller's scratch (one per goroutine, not per
// candidate). qp > 0 enables threshold early termination for the
// Monte-Carlo branch unless cfg.Adaptive turns it off; the closed-form
// branch is exact and ignores qp and rng. The Monte-Carlo branch draws
// from rng, or from math/rand's stream for seed 1 when rng is nil.
func (oq *ObjectQualifier) qualifyThreshold(obj pdf.PDF, qp float64, cfg ObjectEvalConfig, rng *rand.Rand, sc *evalScratch) (float64, int, bool) {
	if !cfg.ForceMonteCarlo && oq.separable {
		if sObj, ok := obj.(pdf.Separable); ok {
			return oq.closedForm(obj.Support(), sObj.MarginalX(), sObj.MarginalY(), sc), 0, false
		}
	}
	// The sampling path: draw locations from the object's pdf and
	// average the exact duality kernel there. The estimate is on the
	// same side of qp as the full-budget estimate would be (certainty
	// bound) or as the true probability with confidence 1−mcbound.Delta per
	// check (Hoeffding / Bernstein), so early termination never changes
	// a threshold query's qualifying set — only the samples spent on
	// clear-cut candidates.
	if cfg.Adaptive != AdaptiveAuto {
		qp = 0
	}
	if rng == nil {
		rng = newRand(1)
	}
	kern := DualityKernel(oq.issuer, oq.w, oq.h)
	return mcbound.Adaptive(cfg.MCSamples, mcBlock, qp, mcbound.Delta, func(n int, t mcbound.Tally) mcbound.Tally {
		for ; n > 0; n-- {
			t.Add(kern(obj.Sample(rng)))
		}
		return t
	})
}

// closedForm is the Lemma 4 closed form for a separable object with
// support sup and marginals mx, my against a separable issuer — the
// refinement of an irregular object and of a leaf record alike (see
// engineState.refineSurvivors).
func (oq *ObjectQualifier) closedForm(sup geom.Rect, mx, my pdf.Marginal, sc *evalScratch) float64 {
	clip := sup.Intersect(oq.expSup)
	if clip.Empty() {
		return 0
	}
	fx := oq.ax.factor(mx, clip.Lo.X, clip.Hi.X, sc)
	if fx == 0 {
		return 0
	}
	fy := oq.ay.factor(my, clip.Lo.Y, clip.Hi.Y, sc)
	return mcbound.ClampProb(fx * fy)
}

// queryPlan is the per-query execution state the engine prepares once
// and shares, read-only, across the candidates (and worker goroutines)
// of one evaluation.
type queryPlan struct {
	q         Query
	expanded  geom.Rect // Minkowski sum R⊕U0
	searchReg geom.Rect // index probe region (p-expanded when applicable)
	// kernel[:kernelN] are the issuer's q-expanded queries at its first
	// kernelN catalog rows, for the pruning strategies' kernel bound
	// (kernelUpperBound): built once per request, not per candidate.
	// kernelNested says each lies inside the one before
	// (geom.Rect.ContainsRect), as Lemma 5's queries do for a separable
	// issuer.
	kernel       [kernelRows]geom.Rect
	kernelN      int
	kernelNested bool
	qualifier    *ObjectQualifier
}

// newQueryPlan prepares a validated query. withQualifier is set by the
// uncertain-object paths, which prune candidates against the issuer's
// q-expanded queries and refine them through the duality kernel; point
// paths skip that preparation.
func newQueryPlan(q Query, opts EvalOptions, withQualifier bool) queryPlan {
	p := queryPlan{q: q, expanded: q.Expanded()}
	p.searchReg = p.expanded
	if q.Threshold > 0 && !opts.DisablePExpansion {
		p.searchReg, _ = SearchRegion(q)
	}
	if withQualifier {
		p.kernelN = min(q.Issuer.Catalog.Len(), kernelRows)
		p.kernelNested = true
		for i, b := range q.Issuer.Catalog.Bounds()[:p.kernelN] {
			p.kernel[i] = PExpandedQuery(b, q.W, q.H)
			if i > 0 && !p.kernel[i-1].ContainsRect(p.kernel[i]) {
				p.kernelNested = false
			}
		}
		p.qualifier = NewObjectQualifier(q.Issuer.PDF, q.W, q.H)
	}
	return p
}
