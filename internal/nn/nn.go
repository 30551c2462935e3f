// Package nn implements the paper's first future-work item (§7):
// imprecise location-dependent nearest-neighbor queries. Given a query
// issuer with an uncertain location, it returns for each point object
// the probability that the object is the issuer's nearest neighbor —
// the probabilistic counterpart of the range nearest-neighbor query
// (Hu & Lee 2006, the paper's reference [11]).
//
// Evaluation has two stages, mirroring the range-query engine:
//
//  1. Candidate pruning: an object can be the nearest neighbor of
//     some position in U0 only if its minimum distance to U0 does not
//     exceed the smallest maximum distance any object has to U0
//     (the classic MinDist/MaxDist bound). Everything else has
//     qualification probability exactly zero.
//  2. Monte-Carlo refinement: sample issuer positions from f0 and
//     tally, for each sampled position, which candidate is nearest.
//     The estimate is unbiased, and a sample looks only at the few
//     candidates around it: a uniform bucket grid over the candidates
//     (built once per Refine call) resolves the nearest one by a ring
//     search outward from the sample's cell.
//
// # Determinism contract (shared sample stream)
//
// Refinement draws ONE issuer-position stream shared by every
// candidate: sample index s belongs to block b = s/BlockSize, and
// block b's positions come from math/rand's generator seeded with
// mcbound.DeriveSeed(parent seed, b) — splitmix-derived, so the
// position at any index is a pure function of the parent seed,
// independent of the candidate count. The generator is mcbound.Source,
// whose every output equals rand.NewSource's for the same seed; one
// per Refine call is re-seeded for each block.
// Each sampled position is resolved to its nearest candidate in a
// single pass and tallied as one integer win; a candidate's
// probability is wins/samples. Consequences:
//
//   - Total refinement work is O(candidates + samples) expected — one
//     grid build plus one ring search per sample. The product
//     candidates × samples is the worst case only (every candidate in
//     one cell, or an issuer far outside the candidates' bounding
//     box, where the ring search degenerates to the linear scan), not
//     O(candidates² × samples) as with per-candidate streams.
//   - Exactly one candidate wins each sample, so exhaustive estimates
//     sum to exactly 1 (up to float addition of the final divisions).
//   - Adaptive early termination (Threshold > 0) checks candidates
//     against the mcbound certainty/Hoeffding/empirical-Bernstein
//     bounds only at fixed round boundaries (RoundBlocks whole
//     blocks), never mid-block — so the retirement schedule, and with
//     it every tally, is a function of the stream alone.
//
// Retired ("decided") candidates stop accumulating wins but stay in the
// grid: a sample is tallied only when its nearest candidate over the
// FULL candidate set is still active, so surviving estimates stay
// exactly the tallies an exhaustive run would produce — retirement
// never biases a survivor. Once every candidate is decided the stream
// stops entirely.
//
// The engine integrates this package as a first-class query kind
// (core.KindNN): candidates come from a branch-and-bound search over
// the pinned snapshot's R-tree, and Refine computes the
// probabilities. The slice-based Evaluate / EvaluateThreshold
// functions remain for callers without an engine.
package nn

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/mcbound"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// Match pairs an object id with its probability of being the nearest
// neighbor.
type Match struct {
	ID uncertain.ID
	P  float64
}

// Result reports an evaluation.
type Result struct {
	// Matches holds every object with non-zero estimated probability,
	// ordered by descending probability then id.
	Matches []Match
	// Candidates is the number of objects surviving distance pruning.
	Candidates int
	// Samples is the shared-stream Monte-Carlo budget.
	Samples int
}

// ErrNoObjects is returned when the database is empty.
var ErrNoObjects = errors.New("nn: no objects to query")

// DefaultSamples is the shared-stream Monte-Carlo budget used when the
// caller passes 0. It is the total number of issuer positions drawn —
// not a per-candidate count — since every candidate is tallied against
// the same stream.
const DefaultSamples = 1000

// DefaultBlock is the number of consecutive sample indexes per seed
// block: block b of the stream is generated from (parent, b). Blocks
// are the unit of cancellation polling.
const DefaultBlock = 128

// DefaultRoundBlocks is the number of whole blocks between adaptive
// early-termination checks (16 blocks × 128 samples = 2048 samples per
// round). Rounds are fixed sample counts, so retirement decisions
// depend on the stream alone.
const DefaultRoundBlocks = 16

// Prune applies the MinDist/MaxDist bound: tau is the smallest
// maximum distance any object has to u0 (some object is always within
// tau of every position in u0), and any object whose minimum distance
// to u0 exceeds tau can never be the nearest neighbor. The surviving
// candidates are returned in input order.
func Prune(points []uncertain.PointObject, u0 geom.Rect) []uncertain.PointObject {
	tau := math.Inf(1)
	for _, p := range points {
		if d := u0.MaxDist(p.Loc); d < tau {
			tau = d
		}
	}
	var cands []uncertain.PointObject
	for _, p := range points {
		if u0.MinDist(p.Loc) <= tau {
			cands = append(cands, p)
		}
	}
	return cands
}

// RefineConfig tunes the shared-stream tally kernel. The zero value
// asks for an exhaustive DefaultSamples-long stream.
type RefineConfig struct {
	// Samples is the shared-stream length (<= 0 selects
	// DefaultSamples). This is the total number of issuer positions
	// drawn, independent of the candidate count.
	Samples int
	// Threshold is the query's qualification threshold qp. With
	// Adaptive set and Threshold > 0, candidates provably above or
	// below qp retire early (see RefineStats.Decided).
	Threshold float64
	// Adaptive enables early termination against Threshold; each
	// bound check errs with probability at most mcbound.Delta.
	Adaptive bool
	// Block is the samples-per-seed-block granule (<= 0 selects
	// DefaultBlock). Positions in block b derive from (parent, b), so
	// changing Block changes the stream; it is part of the seed
	// schedule, not a tuning knob to vary per call.
	Block int
	// RoundBlocks is the number of whole blocks drawn between adaptive
	// bound checks (<= 0 selects DefaultRoundBlocks). Like Block, it is
	// part of the retirement schedule, so every tally depends on it.
	RoundBlocks int
	// Cancel, when non-nil, is polled once per block inside the
	// refinement loop: a non-nil return stops refinement within a
	// block's worth of samples and is returned to the caller (the
	// engine passes its context check here, so deadlines and
	// disconnects cannot be outwaited by a long stream).
	Cancel func() error
}

func (c RefineConfig) withDefaults() RefineConfig {
	if c.Samples <= 0 {
		c.Samples = DefaultSamples
	}
	if c.Block <= 0 {
		c.Block = DefaultBlock
	}
	if c.RoundBlocks <= 0 {
		c.RoundBlocks = DefaultRoundBlocks
	}
	if c.Cancel == nil {
		c.Cancel = func() error { return nil }
	}
	return c
}

// RefineStats reports what a Refine call actually did.
type RefineStats struct {
	// Samples is the number of issuer positions drawn from the shared
	// stream — the true sampling work, since every candidate shares
	// the stream. Less than the budget when adaptive refinement
	// converged (every candidate decided) before the stream ended.
	Samples int64
	// EarlyStopped counts candidates retired by a bound before the
	// stream ended.
	EarlyStopped int
	// Converged reports that the stream stopped early because every
	// candidate was decided.
	Converged bool
	// Rounds is the number of fixed-size sample rounds the stream ran
	// (each DefaultRoundBlocks × Block draws, except a short final
	// round) — the granularity at which adaptive retirement and
	// cancellation are checked.
	Rounds int
	// Decided marks, per candidate, whether a bound retired it early.
	// Undecided candidates carry exhaustive tallies over all Samples
	// draws.
	Decided []bool
	// GridCells is the number of cells in the candidate grid the
	// nearest-candidate lookups ran against.
	GridCells int
}

// Refine estimates, for each candidate, the probability that it is the
// issuer's nearest neighbor among cands, by tallying nearest-candidate
// wins over one shared issuer-position stream derived from parent (see
// the package documentation for the determinism contract). It returns
// one probability per candidate, in input order. Ties on sampled
// distance break toward the lower slice index, deterministically.
//
// On error (cancellation, or an issuer sampling failure surfaced
// through Cancel) the partial probabilities are returned along with
// the error.
func Refine(cands []uncertain.PointObject, issuer pdf.PDF, parent int64, cfg RefineConfig) ([]float64, RefineStats, error) {
	cfg = cfg.withDefaults()
	n := len(cands)
	probs := make([]float64, n)
	stats := RefineStats{Decided: make([]bool, n)}
	if n == 0 {
		return probs, stats, nil
	}

	k := kernelPool.Get().(*kernel)
	defer k.release()
	k.issuer, k.parent, k.block, k.samples = issuer, parent, cfg.Block, cfg.Samples
	k.retired = stats.Decided
	k.xs, k.ys = resize(k.xs, n), resize(k.ys, n)
	k.wins = resize(k.wins, n)
	clear(k.wins)
	// active lists the undecided candidate indexes.
	k.active = resize(k.active, n)
	active := k.active
	for i, c := range cands {
		k.xs[i] = c.Loc.X
		k.ys[i] = c.Loc.Y
		active[i] = i
	}
	k.grid.build(k.xs, k.ys)
	stats.GridCells = k.grid.nx * k.grid.ny

	nBlocks := (cfg.Samples + cfg.Block - 1) / cfg.Block
	adaptive := cfg.Adaptive && cfg.Threshold > 0
	roundBlocks := nBlocks
	if adaptive {
		roundBlocks = cfg.RoundBlocks
	}

	drawn := 0
	for b0 := 0; b0 < nBlocks && len(active) > 0; b0 += roundBlocks {
		b1 := b0 + roundBlocks
		if b1 > nBlocks {
			b1 = nBlocks
		}
		err := k.runRound(b0, b1, cfg.Cancel)
		stats.Rounds++
		drawn = b1 * cfg.Block
		if drawn > cfg.Samples {
			drawn = cfg.Samples
		}
		stats.Samples = int64(drawn)
		if err != nil {
			// The stream was cut mid-round: the partial probabilities
			// are not a valid estimate and the caller must discard the
			// whole evaluation (the engine does — a cancelled request
			// returns the error, never the result).
			return probs, stats, err
		}
		if !adaptive || drawn >= cfg.Samples || drawn < 2 {
			continue
		}
		// Fixed-round decision pass: retire candidates a bound has
		// decided. Retirees keep their running mean as the estimate and
		// stay in the grid, so survivors' tallies stay exact.
		kept := active[:0]
		for _, i := range active {
			w := float64(k.wins[i])
			p, done := mcbound.Decided(w, w, drawn, cfg.Samples, cfg.Threshold, mcbound.Delta)
			if !done {
				kept = append(kept, i)
				continue
			}
			probs[i] = p
			k.retired[i] = true
			stats.EarlyStopped++
		}
		active = kept
	}
	if len(active) == 0 {
		stats.Converged = true
	}
	for _, i := range active {
		probs[i] = float64(k.wins[i]) / float64(drawn)
	}
	return probs, stats, nil
}

// kernel is the shared-stream tally state for one Refine call.
// Candidate coordinates live in parallel slices so the per-sample
// search walks flat float64 arrays. Kernels are pooled: a Refine call
// allocates only the probabilities and the Decided flags it returns,
// and its generator is re-seeded per block, never rebuilt.
type kernel struct {
	issuer  pdf.PDF
	parent  int64
	block   int
	samples int
	xs, ys  []float64
	grid    grid
	// wins[i] counts samples candidate i was nearest to.
	wins []int64
	// active is Refine's list of undecided candidates.
	active []int
	// retired[i] marks a candidate a bound has decided (the slice is
	// RefineStats.Decided). It no longer accumulates wins, and a sample
	// it is nearest to is tallied for nobody. Written only between
	// rounds.
	retired []bool
	// rng draws the issuer positions from src, which scanBlock re-seeds
	// for every block.
	rng rand.Rand
	src mcbound.Source
}

var kernelPool = sync.Pool{New: func() any {
	k := new(kernel)
	k.rng = *rand.New(&k.src)
	return k
}}

// maxPooledCandidates caps the candidate count whose buffers a pooled
// kernel keeps: a rare refinement of a huge candidate set does not pin
// its buffers for every later one.
const maxPooledCandidates = 1 << 16

// release returns k to the pool, dropping what belongs to the call.
func (k *kernel) release() {
	k.issuer, k.retired = nil, nil
	if cap(k.xs) <= maxPooledCandidates {
		kernelPool.Put(k)
	}
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// grid is a uniform bucket grid over the candidates' bounding box, in
// CSR layout: cell c (row-major, nx columns) holds the candidate
// indexes cellItems[cellStart[c]:cellStart[c+1]], ascending. Side
// lengths follow from the box and the count (about two candidates per
// cell); a one-cell grid is the linear scan.
type grid struct {
	nx, ny     int
	minX, minY float64
	invW, invH float64 // cells per unit length; 0 on a zero-extent axis
	cellStart  []int32
	cellItems  []int32
	// loX[c] is the smallest x of any candidate in a column >= c, hiX[c]
	// the largest x of any candidate in a column < c (+Inf / -Inf when
	// there is none; both have nx+1 entries). The ring search bounds
	// the unvisited candidates by these, not by cell edges, so the
	// bound holds in floating point exactly and space outside the
	// candidates' box is infinitely far. loY / hiY likewise for rows.
	loX, hiX, loY, hiY []float64
	// cell and next are build's scratch: each candidate's cell, and each
	// cell's next free slot in cellItems.
	cell, next []int32
}

// cellOf maps a coordinate to its clamped column (or row). It is
// monotone in v, for candidates and samples alike: a candidate in a
// higher column than a sample's lies strictly to its right.
func cellOf(v, lo, inv float64, n int) int {
	f := (v - lo) * inv
	if !(f >= 1) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// build lays the grid over the candidates at xs, ys, reusing the
// arrays of the grid it replaces.
func (g *grid) build(xs, ys []float64) {
	n := len(xs)
	minX, maxX, minY, maxY := xs[0], xs[0], ys[0], ys[0]
	for i := 1; i < n; i++ {
		minX, maxX = min(minX, xs[i]), max(maxX, xs[i])
		minY, maxY = min(minY, ys[i]), max(maxY, ys[i])
	}
	g.nx, g.ny, g.minX, g.minY, g.invW, g.invH = 1, 1, minX, minY, 0, 0
	cells := max(n/2, 1)
	w, h := maxX-minX, maxY-minY
	switch {
	case w > 0 && h > 0:
		// Square-ish cells: nx/ny follows the box's aspect ratio.
		g.nx = max(int(min(math.Sqrt(float64(cells)*w/h), float64(cells))), 1)
		g.ny = max(cells/g.nx, 1)
	case w > 0:
		g.nx = cells
	case h > 0:
		g.ny = cells
	}
	if w > 0 {
		g.invW = float64(g.nx) / w
	}
	if h > 0 {
		g.invH = float64(g.ny) / h
	}

	g.loX, g.hiX = bounds(g.loX, g.hiX, g.nx)
	g.loY, g.hiY = bounds(g.loY, g.hiY, g.ny)
	g.cellStart = resize(g.cellStart, g.nx*g.ny+1)
	clear(g.cellStart)
	g.cell = resize(g.cell, n)
	cell := g.cell
	for i := range xs {
		cx := cellOf(xs[i], minX, g.invW, g.nx)
		cy := cellOf(ys[i], minY, g.invH, g.ny)
		g.loX[cx], g.hiX[cx+1] = min(g.loX[cx], xs[i]), max(g.hiX[cx+1], xs[i])
		g.loY[cy], g.hiY[cy+1] = min(g.loY[cy], ys[i]), max(g.hiY[cy+1], ys[i])
		cell[i] = int32(cy*g.nx + cx)
		g.cellStart[cell[i]+1]++
	}
	for c := g.nx - 1; c >= 0; c-- {
		g.loX[c] = min(g.loX[c], g.loX[c+1])
	}
	for c := g.ny - 1; c >= 0; c-- {
		g.loY[c] = min(g.loY[c], g.loY[c+1])
	}
	for c := 1; c <= g.nx; c++ {
		g.hiX[c] = max(g.hiX[c], g.hiX[c-1])
	}
	for c := 1; c <= g.ny; c++ {
		g.hiY[c] = max(g.hiY[c], g.hiY[c-1])
	}
	for c := 1; c < len(g.cellStart); c++ {
		g.cellStart[c] += g.cellStart[c-1]
	}
	// Counting sort by cell; filling in index order keeps each cell's
	// items ascending.
	g.cellItems = resize(g.cellItems, n)
	g.next = append(g.next[:0], g.cellStart[:len(g.cellStart)-1]...)
	next := g.next
	for i, c := range cell {
		g.cellItems[next[c]] = int32(i)
		next[c]++
	}
}

// bounds returns lo and hi resized to n+1 entries, lo all +Inf and hi
// all -Inf: the initial bounds of an axis of n cells.
func bounds(lo, hi []float64, n int) ([]float64, []float64) {
	lo, hi = resize(lo, n+1), resize(hi, n+1)
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	return lo, hi
}

// nearest returns the index of the candidate nearest to (px, py) —
// the lexicographic minimum of (squared distance, index) over all
// candidates, as a linear keep-first scan would find — or -1 when no
// candidate is at a finite distance. It searches rings of cells outward
// from the sample's (clamped) cell and stops once the best squared
// distance is strictly below the squared distance to every candidate
// not yet visited.
func (k *kernel) nearest(px, py float64) int {
	g := &k.grid
	sx := cellOf(px, g.minX, g.invW, g.nx)
	sy := cellOf(py, g.minY, g.invH, g.ny)
	best, bd := -1, math.Inf(1)
	for r := 0; ; r++ {
		x0, x1 := max(sx-r, 0), min(sx+r, g.nx-1)
		y0, y1 := max(sy-r, 0), min(sy+r, g.ny-1)
		for cy := y0; cy <= y1; cy++ {
			row := cy * g.nx
			if cy == sy-r || cy == sy+r {
				best, bd = k.scanCells(row+x0, row+x1, px, py, best, bd)
				continue
			}
			if sx-r >= 0 {
				best, bd = k.scanCells(row+sx-r, row+sx-r, px, py, best, bd)
			}
			if sx+r < g.nx {
				best, bd = k.scanCells(row+sx+r, row+sx+r, px, py, best, bd)
			}
		}
		// Once the ring covers the grid nothing is left to visit. This
		// exit does not depend on arithmetic, so a non-finite sample
		// (every distance +Inf or NaN: best stays -1) ends here too.
		if x0 == 0 && y0 == 0 && x1 == g.nx-1 && y1 == g.ny-1 {
			return best
		}
		// Every unvisited candidate sits in a column right of x1 or left
		// of x0, or a row above y1 or below y0, so it is at least gap
		// away along that axis. A NaN gap fails the test and the search
		// goes on, which is always correct.
		gap := min(g.loX[x1+1]-px, px-g.hiX[x0], g.loY[y1+1]-py, py-g.hiY[y0])
		if bd < gap*gap {
			return best
		}
	}
}

// scanCells folds the candidates of cells c0..c1 (adjacent in one row,
// so one run of cellItems) into the running (best, bd) minimum.
func (k *kernel) scanCells(c0, c1 int, px, py float64, best int, bd float64) (int, float64) {
	for _, it := range k.grid.cellItems[k.grid.cellStart[c0]:k.grid.cellStart[c1+1]] {
		i := int(it)
		dx := px - k.xs[i]
		dy := py - k.ys[i]
		if d := dx*dx + dy*dy; d < bd || (d == bd && i < best) {
			best, bd = i, d
		}
	}
	return best, bd
}

// scanBlock draws block b's samples from (parent, b) and tallies
// nearest-candidate wins into k.wins. A sample whose nearest candidate
// has retired is tallied for nobody. Re-seeding the kernel's generator
// resets it completely (rand.Rand.Seed clears its read position too),
// so the block draws what a fresh rand.New(rand.NewSource(seed)) would.
func (k *kernel) scanBlock(b int) {
	rng := &k.rng
	rng.Seed(mcbound.DeriveSeed(k.parent, b))
	lo := b * k.block
	hi := lo + k.block
	if hi > k.samples {
		hi = k.samples
	}
	for s := lo; s < hi; s++ {
		pos := k.issuer.Sample(rng)
		if best := k.nearest(pos.X, pos.Y); best >= 0 && !k.retired[best] {
			k.wins[best]++
		}
	}
}

// runRound tallies blocks [b0, b1) into k.wins, polling cancel before
// each block.
func (k *kernel) runRound(b0, b1 int, cancel func() error) error {
	for b := b0; b < b1; b++ {
		if err := cancel(); err != nil {
			return err
		}
		k.scanBlock(b)
	}
	return nil
}

// Evaluate computes nearest-neighbor qualification probabilities for
// the issuer pdf over the given point objects. samples <= 0 selects a
// DefaultSamples-long shared stream. A nil rng gets a fixed seed,
// making results reproducible; the rng contributes only one parent
// draw (the block streams are derived from it and the block index).
//
// Applications holding an engine should prefer evaluating a
// core.Request of kind KindNN — it prunes candidates through the
// engine's R-tree and observes one MVCC snapshot. Evaluate is the
// engine-less path for slice-based callers.
func Evaluate(points []uncertain.PointObject, issuer pdf.PDF, samples int, rng *rand.Rand) (Result, error) {
	if len(points) == 0 {
		return Result{}, ErrNoObjects
	}
	if samples <= 0 {
		samples = DefaultSamples
	}
	if rng == nil {
		rng = rand.New(mcbound.NewSource(1))
	}
	cands := Prune(points, issuer.Support())
	probs, _, _ := Refine(cands, issuer, rng.Int63(), RefineConfig{Samples: samples})

	res := Result{Candidates: len(cands), Samples: samples}
	for i, p := range probs {
		if p > 0 {
			res.Matches = append(res.Matches, Match{ID: cands[i].ID, P: p})
		}
	}
	sortMatches(res.Matches)
	return res, nil
}

// sortMatches orders by descending probability, then ascending id.
func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].P != ms[j].P {
			return ms[i].P > ms[j].P
		}
		return ms[i].ID < ms[j].ID
	})
}

// EvaluateThreshold is Evaluate restricted to answers with probability
// at least qp — the nearest-neighbor analogue of the constrained
// queries.
//
// As with Evaluate, engine-holding applications should prefer a
// core.Request of kind KindNN with Threshold set — the engine path
// also retires decided candidates early; this slice-based form draws
// the full stream.
func EvaluateThreshold(points []uncertain.PointObject, issuer pdf.PDF, qp float64, samples int, rng *rand.Rand) (Result, error) {
	res, err := Evaluate(points, issuer, samples, rng)
	if err != nil {
		return Result{}, err
	}
	kept := res.Matches[:0]
	for _, m := range res.Matches {
		if m.P >= qp {
			kept = append(kept, m)
		}
	}
	res.Matches = kept
	return res, nil
}
