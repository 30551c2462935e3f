// Package nn implements the refinement stage of the paper's first
// future-work item (§7): imprecise location-dependent nearest-neighbor
// queries. Given a query issuer with an uncertain location and the
// candidate points that can be its nearest neighbor, Refine estimates
// for each candidate the probability that it is the issuer's nearest
// neighbor — the probabilistic counterpart of the range
// nearest-neighbor query (Hu & Lee 2006, the paper's reference [11]).
//
// The candidates come from the engine (core.KindNN): a branch-and-bound
// search over a pinned snapshot's point R-tree keeps exactly the points
// whose minimum distance to the issuer's region does not exceed the
// smallest maximum distance any point has to it (the classic
// MinDist/MaxDist bound); every other point has probability zero.
// Refine then samples issuer positions from the issuer's pdf and
// tallies, for each sampled position, which candidate is nearest. A
// uniform bucket grid over the candidates (built once per Refine call)
// finds the few candidates around a sample.
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
// Each sampled position is resolved to its nearest candidate — the
// lexicographic minimum of (squared distance, slice index) — and
// tallied as one integer win; a candidate's probability is
// wins/samples. Consequences:
//
//   - Total refinement work is O(candidates + samples) expected. The
//     product candidates × samples is the worst case only (every
//     candidate in one cell, or an issuer far outside the candidates'
//     bounding box), not O(candidates² × samples) as with
//     per-candidate streams.
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
// # Resolving only what can change the answer
//
// A round's samples are drawn first and bucketed by grid cell. Each
// occupied cell gets the list of candidates that can be nearest to some
// point of its samples' bounding box (see kernel.cellList, which proves
// the list complete in floating point), and each of its samples is
// resolved against that list. In the last round of a query with
// Threshold > 0 — the one round no decision pass follows — a cell is
// resolved only when its list holds an active candidate whose wins so
// far, plus the samples of every cell listing it, plus the samples
// still to come (a long round is drawn in chunks), reach the fewest
// wins that clear Threshold.
// Every sample such a candidate can win is therefore resolved, so its
// tally is exact; every other candidate's tally stays below that count.
// The contract, with Threshold > 0: a candidate whose exhaustive
// probability is at least Threshold reports it bit for bit, and so does
// a decided one; an undecided candidate below Threshold reports some
// probability below Threshold, not necessarily its own. Decided flags,
// every other RefineStats counter and the stream are the exhaustive
// run's. With Threshold = 0 every sample is resolved.
package nn

import (
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/mcbound"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

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

// chunkSamples bounds the samples a kernel holds at once: a round is
// drawn, bucketed and resolved in chunks of as many whole blocks as fit
// (at least one).
const chunkSamples = DefaultRoundBlocks * DefaultBlock

// sparseCell is the fewest samples for which a cell builds a candidate
// list; a cell with fewer resolves each sample by its own ring search,
// which costs about as much as building the list would.
const sparseCell = 3

// RefineConfig tunes the shared-stream tally kernel. The zero value
// asks for an exhaustive DefaultSamples-long stream.
type RefineConfig struct {
	// Samples is the shared-stream length (<= 0 selects
	// DefaultSamples). This is the total number of issuer positions
	// drawn, independent of the candidate count.
	Samples int
	// Threshold is the query's qualification threshold qp. With
	// Adaptive set and Threshold > 0, candidates provably above or
	// below qp retire early (see RefineStats.Decided). With Threshold >
	// 0, adaptive or not, an undecided candidate whose probability is
	// below qp may report any probability below qp (see the package
	// documentation); the caller accepts p >= qp.
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
	// Cancel, when non-nil, is polled once per block drawn and once per
	// block's worth of samples resolved: a non-nil return stops
	// refinement within a block's worth of work and is returned to the
	// caller (the engine passes its context check here, so deadlines
	// and disconnects cannot be outwaited by a long stream).
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
	// Resolved is the number of drawn positions whose nearest candidate
	// was computed: Samples when Threshold is 0, fewer when a final
	// round skipped the cells no candidate can reach Threshold from.
	Resolved int64
	// EarlyStopped counts candidates retired by a bound before the
	// stream ended.
	EarlyStopped int
	// Converged reports that the stream stopped early because every
	// candidate was decided.
	Converged bool
	// Rounds is the number of fixed-size sample rounds the stream ran
	// (each DefaultRoundBlocks × Block draws, except a short final
	// round) — the granularity at which adaptive retirement is checked.
	Rounds int
	// Decided marks, per candidate, whether a bound retired it early.
	// Undecided candidates carry exhaustive tallies over all Samples
	// draws (below Threshold, see RefineConfig.Threshold).
	Decided []bool
	// GridCells is the number of cells in the candidate grid the
	// nearest-candidate lookups ran against.
	GridCells int
}

// Refine estimates, for each candidate, the probability that it is the
// issuer's nearest neighbor among cands, by tallying nearest-candidate
// wins over one shared issuer-position stream derived from parent (see
// the package documentation for the determinism contract and what
// Threshold > 0 leaves unresolved). It returns one probability per
// candidate, in input order. Ties on sampled distance break toward the
// lower slice index, deterministically.
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
	k.resolved = 0
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
	// A ring search appends each candidate at most once; the lists of a
	// restricted chunk's cells usually total about twice the candidates.
	k.ringD = slices.Grow(k.ringD[:0], n)
	k.lists = slices.Grow(k.lists[:0], 2*n)

	nBlocks := (cfg.Samples + cfg.Block - 1) / cfg.Block
	adaptive := cfg.Adaptive && cfg.Threshold > 0
	roundBlocks := nBlocks
	if adaptive {
		roundBlocks = cfg.RoundBlocks
	}
	var need int64
	if cfg.Threshold > 0 {
		need = needWins(cfg.Threshold, cfg.Samples)
	}

	drawn := 0
	for b0 := 0; b0 < nBlocks && len(active) > 0; b0 += roundBlocks {
		b1 := min(b0+roundBlocks, nBlocks)
		// A decision pass reads every active candidate's tally, so only
		// the last round, which none follows, may leave a tally short.
		var roundNeed int64
		if b1 == nBlocks {
			roundNeed = need
		}
		err := k.runRound(b0, b1, roundNeed, cfg.Cancel)
		stats.Rounds++
		drawn = min(b1*cfg.Block, cfg.Samples)
		stats.Samples = int64(drawn)
		stats.Resolved = k.resolved
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

// needWins returns the fewest wins w whose final probability clears qp
// as the caller tests it — the least w with float64(w)/samples >= qp —
// or samples+1 when no tally does. qp must be positive, so w >= 1.
// Division by samples is monotone in w, and ceil(qp·samples) is within
// one of the answer, so each loop runs at most twice.
func needWins(qp float64, samples int) int64 {
	s := float64(samples)
	w := int64(math.Ceil(min(qp*s, s+1)))
	for w > 1 && float64(w-1)/s >= qp {
		w--
	}
	for w <= int64(samples) && float64(w)/s < qp {
		w++
	}
	return w
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
	// resolved counts the samples whose nearest candidate was computed.
	resolved int64
	// rng draws the issuer positions from src, which drawBlock re-seeds
	// for every block.
	rng rand.Rand
	src mcbound.Source

	// The current chunk's finite samples, in draw order, and each one's
	// grid cell.
	sx, sy []float64
	scell  []int32
	// The chunk's samples bucketed by cell, in CSR layout: cell c holds
	// the sample indexes sItems[sStart[c]:sStart[c+1]], ascending.
	sStart, sItems []int32
	// lists holds the candidate lists of a restricted chunk's cells back
	// to back, refs where each cell's list lies. listed[i] counts the
	// chunk's samples in cells whose list holds candidate i, then (see
	// tallyChunk) the most wins i can end the chunk with.
	lists  []int32
	refs   []cellRef
	listed []int64
	// ringD is cellList's scratch: the squared MinDist of each
	// candidate it appended.
	ringD []float64
}

// cellRef locates one cell's candidate list: lists[lo:hi] for the
// samples of grid cell cell.
type cellRef struct {
	cell, lo, hi int32
}

var kernelPool = sync.Pool{New: func() any {
	k := new(kernel)
	k.rng = *rand.New(&k.src)
	return k
}}

// maxPooledCandidates caps the candidate count whose buffers a pooled
// kernel keeps: a rare refinement of a huge candidate set does not pin
// its buffers for every later one. The same cap holds for a chunk's
// samples, which a huge Block inflates.
const maxPooledCandidates = 1 << 16

// release returns k to the pool, dropping what belongs to the call.
func (k *kernel) release() {
	k.issuer, k.retired = nil, nil
	if cap(k.xs) <= maxPooledCandidates && cap(k.sx) <= maxPooledCandidates && cap(k.lists) <= 16*maxPooledCandidates {
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
	// cx, cy are the candidates' coordinates in cellItems order, so a
	// scan of a run of cells reads memory in order.
	cx, cy []float64
	// loX[c] is the smallest x of any candidate in a column >= c, hiX[c]
	// the largest x of any candidate in a column < c (+Inf / -Inf when
	// there is none; both have nx+1 entries). The ring searches bound
	// the unvisited candidates by these, not by cell edges, so the
	// bound holds in floating point exactly and space outside the
	// candidates' box is infinitely far. loY / hiY likewise for rows.
	loX, hiX, loY, hiY []float64
	// cell and next are build's scratch: each candidate's cell, and each
	// cell's next free slot in cellItems. The kernel's bucketing of
	// samples reuses next.
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
	g.cx, g.cy = resize(g.cx, n), resize(g.cy, n)
	next := g.next
	for i, c := range cell {
		g.cellItems[next[c]] = int32(i)
		g.cx[next[c]], g.cy[next[c]] = xs[i], ys[i]
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

// sqDist is the squared distance the kernel compares, for coordinate
// differences dx and dy. The conversions forbid a fused multiply-add,
// so both squares and the sum round on their own: every step is then a
// monotone function of |dx| and |dy|, which cellList's proof rests on.
func sqDist(dx, dy float64) float64 {
	return float64(dx*dx) + float64(dy*dy)
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
	g := &k.grid
	lo, hi := g.cellStart[c0], g.cellStart[c1+1]
	xs, ys := g.cx[lo:hi], g.cy[lo:hi]
	for j, it := range g.cellItems[lo:hi] {
		i := int(it)
		if d := sqDist(px-xs[j], py-ys[j]); d < bd || (d == bd && i < best) {
			best, bd = i, d
		}
	}
	return best, bd
}

// nearestIn is nearest over the candidates of list, which cellList
// proved to hold the nearest candidate of (px, py).
func (k *kernel) nearestIn(list []int32, px, py float64) int {
	best, bd := -1, math.Inf(1)
	for _, it := range list {
		i := int(it)
		if d := sqDist(px-k.xs[i], py-k.ys[i]); d < bd || (d == bd && i < best) {
			best, bd = i, d
		}
	}
	return best
}

// tally credits one sample to its nearest candidate best, unless there
// is none or it has retired.
func (k *kernel) tally(best int) {
	if best >= 0 && !k.retired[best] {
		k.wins[best]++
	}
}

// cellList appends to k.lists every candidate that can be nearest to a
// point of the box [x0, x1] × [y0, y1] holding the samples of grid cell
// (cx, cy): the candidates whose squared MinDist to the box is at most
// bound, the smallest squared MaxDist any candidate has to it. It
// reports false, appending nothing, when bound is NaN (a non-finite
// candidate), and the caller resolves the cell sample by sample.
//
// The list is complete in floating point with no slack. Rounding to
// nearest is monotone and odd, and sqDist rounds each step on its own,
// so for a sample p in the box and a candidate c the computed
// sqDist(p-c) is at least c's computed MinDist (each coordinate's gap
// to the box rounds to at most p's) and at most its computed MaxDist
// (each coordinate's farthest box edge rounds to at least p's). The
// sample's nearest candidate n therefore has MinDist(n) <= sqDist(p-n)
// <= sqDist(p-j) <= MaxDist(j) for every j, so MinDist(n) <= bound.
// The ring search stops once bound < gap², gap being a lower bound on
// every unvisited candidate's coordinate gap to the box along some
// axis (a candidate in another column than every sample lies strictly
// beyond the box, because cellOf is monotone), so no unvisited
// candidate is within bound.
func (k *kernel) cellList(cx, cy int, x0, x1, y0, y1 float64) bool {
	g := &k.grid
	l0 := len(k.lists)
	list, dist := k.lists, k.ringD[:0]
	bound := math.Inf(1)
	for r := 0; ; r++ {
		rx0, rx1 := max(cx-r, 0), min(cx+r, g.nx-1)
		ry0, ry1 := max(cy-r, 0), min(cy+r, g.ny-1)
		for row := ry0; row <= ry1; row++ {
			c := row * g.nx
			if row == cy-r || row == cy+r {
				list, dist, bound = g.listCells(c+rx0, c+rx1, x0, x1, y0, y1, list, dist, bound)
				continue
			}
			if cx-r >= 0 {
				list, dist, bound = g.listCells(c+cx-r, c+cx-r, x0, x1, y0, y1, list, dist, bound)
			}
			if cx+r < g.nx {
				list, dist, bound = g.listCells(c+cx+r, c+cx+r, x0, x1, y0, y1, list, dist, bound)
			}
		}
		if rx0 == 0 && ry0 == 0 && rx1 == g.nx-1 && ry1 == g.ny-1 {
			break
		}
		gap := min(g.loX[rx1+1]-x1, x0-g.hiX[rx0], g.loY[ry1+1]-y1, y0-g.hiY[ry0])
		if bound < gap*gap {
			break
		}
	}
	k.ringD = dist
	if bound != bound {
		k.lists = list[:l0]
		return false
	}
	// Keep the appended candidates within the final bound.
	kept := list[:l0]
	for j, i := range list[l0:] {
		if dist[j] <= bound {
			kept = append(kept, i)
		}
	}
	k.lists = kept
	return true
}

// listCells appends to list the candidates of cells c0..c1 (adjacent
// in one row) whose squared MinDist to the box is within the running
// bound, and that distance to dist, and returns the bound lowered by
// their squared MaxDist. A candidate beyond the bound is dropped
// without its MaxDist: that is at least its MinDist.
func (g *grid) listCells(c0, c1 int, x0, x1, y0, y1 float64, list []int32, dist []float64, bound float64) ([]int32, []float64, float64) {
	lo, hi := g.cellStart[c0], g.cellStart[c1+1]
	xs, ys := g.cx[lo:hi], g.cy[lo:hi]
	for j, it := range g.cellItems[lo:hi] {
		x, y := xs[j], ys[j]
		near := sqDist(max(x0-x, 0)+max(x-x1, 0), max(y0-y, 0)+max(y-y1, 0))
		if near > bound {
			continue
		}
		far := sqDist(max(math.Abs(x-x0), math.Abs(x-x1)), max(math.Abs(y-y0), math.Abs(y-y1)))
		bound = min(bound, far)
		list = append(list, it)
		dist = append(dist, near)
	}
	return list, dist, bound
}

// drawBlock draws block b's samples from (parent, b) into the chunk.
// A non-finite sample has no cell to go to; it is resolved at once,
// by the ring search. Re-seeding the kernel's generator resets it
// completely (rand.Rand.Seed clears its read position too), so the
// block draws what a fresh rand.New(rand.NewSource(seed)) would.
func (k *kernel) drawBlock(b int) {
	rng := &k.rng
	rng.Seed(mcbound.DeriveSeed(k.parent, b))
	g := &k.grid
	lo := b * k.block
	hi := min(lo+k.block, k.samples)
	for s := lo; s < hi; s++ {
		pos := k.issuer.Sample(rng)
		if pos.X-pos.X != 0 || pos.Y-pos.Y != 0 {
			k.tally(k.nearest(pos.X, pos.Y))
			k.resolved++
			continue
		}
		cx := cellOf(pos.X, g.minX, g.invW, g.nx)
		cy := cellOf(pos.Y, g.minY, g.invH, g.ny)
		k.sx = append(k.sx, pos.X)
		k.sy = append(k.sy, pos.Y)
		k.scell = append(k.scell, int32(cy*g.nx+cx))
	}
}

// runRound tallies blocks [b0, b1) into k.wins, a chunk of at most
// chunkSamples draws (and at least one block) at a time. need > 0 says
// no decision pass follows: a chunk then resolves only the cells where
// an active candidate can still reach need wins by the stream's end.
func (k *kernel) runRound(b0, b1 int, need int64, cancel func() error) error {
	per := max(chunkSamples/k.block, 1)
	for c0 := b0; c0 < b1; c0 += per {
		c1 := min(c0+per, b1)
		// The samples after this chunk can add at most that many wins.
		floor := need - int64(k.samples-min(c1*k.block, k.samples))
		if err := k.tallyChunk(c0, c1, floor, cancel); err != nil {
			return err
		}
	}
	return nil
}

// tallyChunk draws blocks [b0, b1), buckets the samples by grid cell
// and resolves them cell by cell against the cell's candidate list. A
// cell with fewer than sparseCell samples, or whose list cellList
// refused, resolves each sample by the ring search instead.
//
// With floor > 0 a cell is resolved only when its list holds an active
// candidate that can end the chunk with floor wins: its wins so far,
// plus every sample of every cell listing it. Such a candidate's cells
// are all resolved, so its tally is exact; any other candidate ends
// with fewer than floor wins, which is all the caller needs of it.
func (k *kernel) tallyChunk(b0, b1 int, floor int64, cancel func() error) error {
	m := min(b1*k.block, k.samples) - b0*k.block
	k.sx, k.sy, k.scell = slices.Grow(k.sx[:0], m), slices.Grow(k.sy[:0], m), slices.Grow(k.scell[:0], m)
	for b := b0; b < b1; b++ {
		if err := cancel(); err != nil {
			return err
		}
		k.drawBlock(b)
	}

	// Counting sort of the samples by cell.
	g := &k.grid
	cells := g.nx * g.ny
	k.sStart = resize(k.sStart, cells+1)
	clear(k.sStart)
	for _, c := range k.scell {
		k.sStart[c+1]++
	}
	for c := 1; c <= cells; c++ {
		k.sStart[c] += k.sStart[c-1]
	}
	k.sItems = resize(k.sItems, len(k.scell))
	g.next = append(g.next[:0], k.sStart[:cells]...)
	for s, c := range k.scell {
		k.sItems[g.next[c]] = int32(s)
		g.next[c]++
	}

	restricted := floor > 0
	k.lists, k.refs = k.lists[:0], k.refs[:0]
	if restricted {
		k.listed = resize(k.listed, len(k.xs))
		clear(k.listed)
	}
	work := 0
	for c := range cells {
		ss := k.sItems[k.sStart[c]:k.sStart[c+1]]
		if len(ss) == 0 {
			continue
		}
		if work >= k.block {
			if err := cancel(); err != nil {
				return err
			}
			work = 0
		}
		work += len(ss)
		if len(ss) >= sparseCell {
			x0, y0 := k.sx[ss[0]], k.sy[ss[0]]
			x1, y1 := x0, y0
			for _, s := range ss[1:] {
				x0, x1 = min(x0, k.sx[s]), max(x1, k.sx[s])
				y0, y1 = min(y0, k.sy[s]), max(y1, k.sy[s])
			}
			l0 := len(k.lists)
			if k.cellList(c%g.nx, c/g.nx, x0, x1, y0, y1) {
				if !restricted {
					k.resolveCell(k.lists[l0:], ss)
					k.lists = k.lists[:l0]
					continue
				}
				for _, i := range k.lists[l0:] {
					k.listed[i] += int64(len(ss))
				}
				k.refs = append(k.refs, cellRef{cell: int32(c), lo: int32(l0), hi: int32(len(k.lists))})
				continue
			}
		}
		for _, s := range ss {
			k.tally(k.nearest(k.sx[s], k.sy[s]))
		}
		k.resolved += int64(len(ss))
	}
	if !restricted {
		return nil
	}

	// Every wins count is final for the chunk but the listed cells';
	// listed[i] becomes the most candidate i can end the chunk with, and
	// a retired candidate, which gains nothing, is never a reason to
	// resolve a cell.
	for i, r := range k.retired {
		if r {
			k.listed[i] = 0
		} else {
			k.listed[i] += k.wins[i]
		}
	}
	work = 0
	for _, ref := range k.refs {
		list := k.lists[ref.lo:ref.hi]
		for _, i := range list {
			if k.listed[i] < floor {
				continue
			}
			if work >= k.block {
				if err := cancel(); err != nil {
					return err
				}
				work = 0
			}
			ss := k.sItems[k.sStart[ref.cell]:k.sStart[ref.cell+1]]
			work += len(ss)
			k.resolveCell(list, ss)
			break
		}
	}
	return nil
}

// resolveCell tallies the samples ss of one cell against its list.
func (k *kernel) resolveCell(list, ss []int32) {
	for _, s := range ss {
		k.tally(k.nearestIn(list, k.sx[s], k.sy[s]))
	}
	k.resolved += int64(len(ss))
}
