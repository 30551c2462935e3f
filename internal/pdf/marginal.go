package pdf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
)

// Errors returned by marginal constructors.
var (
	ErrEmptySupport = errors.New("pdf: empty support interval")
	ErrBadSigma     = errors.New("pdf: sigma must be positive")
	ErrBadWeights   = errors.New("pdf: weights must be non-negative with positive sum")
	// ErrNonFiniteSupport reports a support whose width or height is
	// not finite: every density over it is zero or NaN.
	ErrNonFiniteSupport = errors.New("pdf: support extent is not finite")
)

// CheckFiniteSupport refuses a support whose width or height is not
// finite, as this package's constructors do.
func CheckFiniteSupport(r geom.Rect) error {
	if err := finiteExtent(r.Lo.X, r.Hi.X); err != nil {
		return err
	}
	return finiteExtent(r.Lo.Y, r.Hi.Y)
}

func finiteExtent(lo, hi float64) error {
	if w := hi - lo; math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("%w: [%g, %g]", ErrNonFiniteSupport, lo, hi)
	}
	return nil
}

// UniformMarginal is the uniform distribution on [Lo, Hi].
type UniformMarginal struct {
	lo, hi float64
}

// NewUniformMarginal returns the uniform marginal on [lo, hi].
// A degenerate interval (lo == hi) is allowed and behaves as a point
// mass, which arises for point objects viewed as zero-extent regions.
func NewUniformMarginal(lo, hi float64) (*UniformMarginal, error) {
	if hi < lo {
		return nil, fmt.Errorf("%w: [%g, %g]", ErrEmptySupport, lo, hi)
	}
	if err := finiteExtent(lo, hi); err != nil {
		return nil, err
	}
	return &UniformMarginal{lo: lo, hi: hi}, nil
}

// UniformOn returns the uniform marginal on [lo, hi] by value and
// unchecked, for a caller that holds an interval a validated marginal
// already had — a PTI leaf rectangle's side — and wants the marginal
// without an allocation.
func UniformOn(lo, hi float64) UniformMarginal { return UniformMarginal{lo: lo, hi: hi} }

// Bounds implements Marginal.
func (u *UniformMarginal) Bounds() (float64, float64) { return u.lo, u.hi }

// At implements Marginal.
func (u *UniformMarginal) At(x float64) float64 {
	if x < u.lo || x > u.hi || u.hi == u.lo {
		return 0
	}
	return 1 / (u.hi - u.lo)
}

// CDF implements Marginal.
func (u *UniformMarginal) CDF(x float64) float64 {
	switch {
	case x <= u.lo:
		if u.hi == u.lo && x == u.lo {
			return 1
		}
		return 0
	case x >= u.hi:
		return 1
	default:
		return (x - u.lo) / (u.hi - u.lo)
	}
}

// InvCDF implements Marginal.
func (u *UniformMarginal) InvCDF(p float64) float64 {
	p = clamp01(p)
	return u.lo + p*(u.hi-u.lo)
}

// PartialMoments implements Marginal.
func (u *UniformMarginal) PartialMoments(a, b float64) (m0, m1 float64) {
	if u.hi == u.lo {
		// Point mass at lo.
		if a <= u.lo && u.lo <= b {
			return 1, u.lo
		}
		return 0, 0
	}
	a = math.Max(a, u.lo)
	b = math.Min(b, u.hi)
	if b <= a {
		return 0, 0
	}
	den := 1 / (u.hi - u.lo)
	m0 = (b - a) * den
	m1 = (b*b - a*a) / 2 * den
	return m0, m1
}

// Sample implements Marginal.
func (u *UniformMarginal) Sample(rng *rand.Rand) float64 {
	return u.lo + rng.Float64()*(u.hi-u.lo)
}

// TruncNormalMarginal is a normal distribution N(mu, sigma^2) truncated
// and renormalized to [Lo, Hi]. It models the Gaussian uncertainty pdf
// of Wolfson et al. used in the paper's non-uniform experiments (§6.2:
// mean at the region center, deviation one-sixth of the region size).
type TruncNormalMarginal struct {
	lo, hi    float64
	mu, sigma float64
	z         float64 // normalizing constant Phi(beta) - Phi(alpha)
	cdfLo     float64 // Phi(alpha)
}

// NewTruncNormalMarginal builds a truncated normal marginal.
func NewTruncNormalMarginal(lo, hi, mu, sigma float64) (*TruncNormalMarginal, error) {
	if hi <= lo {
		return nil, fmt.Errorf("%w: [%g, %g]", ErrEmptySupport, lo, hi)
	}
	if err := finiteExtent(lo, hi); err != nil {
		return nil, err
	}
	if sigma <= 0 {
		return nil, fmt.Errorf("%w: %g", ErrBadSigma, sigma)
	}
	cdfLo := stdNormalCDF((lo - mu) / sigma)
	cdfHi := stdNormalCDF((hi - mu) / sigma)
	z := cdfHi - cdfLo
	if z <= 0 {
		return nil, fmt.Errorf("pdf: truncation interval [%g, %g] carries no mass for N(%g, %g^2)", lo, hi, mu, sigma)
	}
	return &TruncNormalMarginal{lo: lo, hi: hi, mu: mu, sigma: sigma, z: z, cdfLo: cdfLo}, nil
}

// Bounds implements Marginal.
func (t *TruncNormalMarginal) Bounds() (float64, float64) { return t.lo, t.hi }

// At implements Marginal.
func (t *TruncNormalMarginal) At(x float64) float64 {
	if x < t.lo || x > t.hi {
		return 0
	}
	return stdNormalPDF((x-t.mu)/t.sigma) / (t.sigma * t.z)
}

// CDF implements Marginal.
func (t *TruncNormalMarginal) CDF(x float64) float64 {
	switch {
	case x <= t.lo:
		return 0
	case x >= t.hi:
		return 1
	default:
		return (stdNormalCDF((x-t.mu)/t.sigma) - t.cdfLo) / t.z
	}
}

// InvCDF implements Marginal. It inverts the CDF by bisection, which is
// robust for any truncation interval and precise to ~1e-12 of the
// support width.
func (t *TruncNormalMarginal) InvCDF(p float64) float64 {
	p = clamp01(p)
	if p == 0 {
		return t.lo
	}
	if p == 1 {
		return t.hi
	}
	lo, hi := t.lo, t.hi
	for i := 0; i < 200 && hi-lo > 1e-13*(t.hi-t.lo)+1e-300; i++ {
		mid := (lo + hi) / 2
		if t.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// PartialMoments implements Marginal using the closed form
//
//	∫_a^b x φ((x-mu)/sigma)/sigma dx
//	  = mu·(Φ(β)-Φ(α)) + sigma·(φ(α)-φ(β)),  α=(a-mu)/σ, β=(b-mu)/σ
//
// renormalized by the truncation constant.
func (t *TruncNormalMarginal) PartialMoments(a, b float64) (m0, m1 float64) {
	a = math.Max(a, t.lo)
	b = math.Min(b, t.hi)
	if b <= a {
		return 0, 0
	}
	alpha := (a - t.mu) / t.sigma
	beta := (b - t.mu) / t.sigma
	dPhi := stdNormalCDF(beta) - stdNormalCDF(alpha)
	m0 = dPhi / t.z
	m1 = (t.mu*dPhi + t.sigma*(stdNormalPDF(alpha)-stdNormalPDF(beta))) / t.z
	return m0, m1
}

// Sample implements Marginal. When the truncation interval holds a
// non-trivial share of the underlying normal's mass — always true for
// the paper's sigma = extent/6 convention, which keeps ~99.7% — it
// uses rejection from the untruncated normal (one NormFloat64 per
// accepted draw on average). For heavily truncated tails it falls back
// to exact inverse-CDF sampling.
func (t *TruncNormalMarginal) Sample(rng *rand.Rand) float64 {
	if t.z > 0.25 {
		for i := 0; i < 64; i++ {
			x := t.mu + t.sigma*rng.NormFloat64()
			if x >= t.lo && x <= t.hi {
				return x
			}
		}
	}
	return t.InvCDF(rng.Float64())
}

// HistogramMarginal is a piecewise-constant density over consecutive
// bins. It represents arbitrary empirical marginals (e.g. positions
// reconstructed from dead-reckoning traces) with exact partial moments.
type HistogramMarginal struct {
	edges []float64 // len n+1, strictly increasing
	cum   []float64 // len n+1, cum[i] = CDF(edges[i])
	dens  []float64 // len n, density inside bin i
}

// NewHistogramMarginal builds a histogram marginal from bin edges and
// non-negative bin weights (relative masses; they are normalized).
func NewHistogramMarginal(edges, weights []float64) (*HistogramMarginal, error) {
	if len(edges) < 2 || len(weights) != len(edges)-1 {
		return nil, fmt.Errorf("pdf: need n+1 edges for n weights, got %d edges, %d weights", len(edges), len(weights))
	}
	var total float64
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("pdf: edges must be strictly increasing at index %d", i)
		}
	}
	if err := finiteExtent(edges[0], edges[len(edges)-1]); err != nil {
		return nil, err
	}
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, ErrBadWeights
		}
		total += w
	}
	if total <= 0 {
		return nil, ErrBadWeights
	}
	n := len(weights)
	h := &HistogramMarginal{
		edges: append([]float64(nil), edges...),
		cum:   make([]float64, n+1),
		dens:  make([]float64, n),
	}
	for i, w := range weights {
		mass := w / total
		h.cum[i+1] = h.cum[i] + mass
		h.dens[i] = mass / (edges[i+1] - edges[i])
	}
	h.cum[n] = 1 // eliminate rounding drift
	return h, nil
}

// Bounds implements Marginal.
func (h *HistogramMarginal) Bounds() (float64, float64) {
	return h.edges[0], h.edges[len(h.edges)-1]
}

// binOf returns the index of the bin containing x, assuming x is within
// bounds; the right edge belongs to the last bin.
func (h *HistogramMarginal) binOf(x float64) int {
	i := sort.SearchFloat64s(h.edges, x)
	// SearchFloat64s returns the first index with edges[i] >= x.
	if i > 0 {
		i--
	}
	if i > len(h.dens)-1 {
		i = len(h.dens) - 1
	}
	return i
}

// At implements Marginal.
func (h *HistogramMarginal) At(x float64) float64 {
	lo, hi := h.Bounds()
	if x < lo || x > hi {
		return 0
	}
	return h.dens[h.binOf(x)]
}

// CDF implements Marginal.
func (h *HistogramMarginal) CDF(x float64) float64 {
	lo, hi := h.Bounds()
	switch {
	case x <= lo:
		return 0
	case x >= hi:
		return 1
	}
	i := h.binOf(x)
	return h.cum[i] + h.dens[i]*(x-h.edges[i])
}

// InvCDF implements Marginal.
func (h *HistogramMarginal) InvCDF(p float64) float64 {
	p = clamp01(p)
	if p == 0 {
		return h.edges[0]
	}
	if p == 1 {
		return h.edges[len(h.edges)-1]
	}
	i := sort.SearchFloat64s(h.cum, p)
	if i > 0 {
		i--
	}
	for i < len(h.dens) && h.dens[i] == 0 {
		i++ // skip zero-mass bins: the quantile sits at their right edge
	}
	if i >= len(h.dens) {
		return h.edges[len(h.edges)-1]
	}
	return h.edges[i] + (p-h.cum[i])/h.dens[i]
}

// PartialMoments implements Marginal.
func (h *HistogramMarginal) PartialMoments(a, b float64) (m0, m1 float64) {
	lo, hi := h.Bounds()
	a = math.Max(a, lo)
	b = math.Min(b, hi)
	if b <= a {
		return 0, 0
	}
	for i := range h.dens {
		l := math.Max(a, h.edges[i])
		r := math.Min(b, h.edges[i+1])
		if r <= l {
			continue
		}
		m0 += h.dens[i] * (r - l)
		m1 += h.dens[i] * (r*r - l*l) / 2
	}
	return m0, m1
}

// Sample implements Marginal.
func (h *HistogramMarginal) Sample(rng *rand.Rand) float64 {
	return h.InvCDF(rng.Float64())
}

// stdNormalPDF is the standard normal density.
func stdNormalPDF(t float64) float64 {
	return math.Exp(-t*t/2) / math.Sqrt(2*math.Pi)
}

// stdNormalCDF is the standard normal CDF via math.Erf.
func stdNormalCDF(t float64) float64 {
	return 0.5 * (1 + math.Erf(t/math.Sqrt2))
}

func clamp01(p float64) float64 {
	switch {
	case p < 0 || math.IsNaN(p):
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}
