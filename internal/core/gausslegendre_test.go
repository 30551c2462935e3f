package core

import (
	"math"
	"testing"
)

// ruleIntegral integrates f over [a, b] with the n-point rule built by
// gaussLegendreRule — the fixed rule's formula at any order.
func ruleIntegral(f func(float64) float64, a, b float64, n int) float64 {
	nodes, weights := gaussLegendreRule(n)
	c, hw := (a+b)/2, (b-a)/2
	var sum float64
	for i, x := range nodes {
		sum += weights[i] * f(c+hw*x)
	}
	return sum * hw
}

func TestGaussLegendreExactForPolynomials(t *testing.T) {
	// An n-point rule is exact through degree 2n−1.
	cubic := func(x float64) float64 { return 2*x*x*x - x*x + 3 }
	// ∫_0^2 2x³ − x² + 3 dx = 8 − 8/3 + 6.
	const cubicWant = 8 - 8.0/3 + 6
	if got := ruleIntegral(cubic, 0, 2, 2); !approx(got, cubicWant, 1e-12) {
		t.Fatalf("GL2 cubic = %g, want %g", got, cubicWant)
	}
	if got := ruleIntegral(func(float64) float64 { return 1 }, 0, 3, 1); !approx(got, 3, 1e-12) {
		t.Fatalf("GL1 constant = %g, want 3", got)
	}
	// The engine's glOrder-point rule: x^k over [-1, 2] up to k = 2·glOrder − 1.
	for k := 0; k < 2*glOrder; k++ {
		f := func(x float64) float64 { return math.Pow(x, float64(k)) }
		want := (math.Pow(2, float64(k+1)) - math.Pow(-1, float64(k+1))) / float64(k+1)
		if got := gaussLegendre(f, -1, 2); !approx(got, want, 1e-12*math.Max(1, math.Abs(want))) {
			t.Fatalf("x^%d: got %g, want %g", k, got, want)
		}
	}
}

func TestGaussLegendreSmoothTranscendental(t *testing.T) {
	// ∫_0^2 sin x dx · ∫_0^3 cos y dy = (1 − cos 2)(sin 3).
	want := (1 - math.Cos(2)) * math.Sin(3)
	got := gaussLegendre(math.Sin, 0, 2) * gaussLegendre(math.Cos, 0, 3)
	if !approx(got, want, 1e-12) {
		t.Fatalf("GL%d = %g, want %g", glOrder, got, want)
	}
	if got := ruleIntegral(math.Sin, 0, 2, 16); !approx(got, 1-math.Cos(2), 1e-12) {
		t.Fatalf("GL16 = %g, want %g", got, 1-math.Cos(2))
	}
}

func TestGaussLegendreRuleProperties(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16, glOrder, 32, 64} {
		nodes, weights := gaussLegendreRule(n)
		if len(nodes) != n || len(weights) != n {
			t.Fatalf("n=%d: got %d nodes, %d weights", n, len(nodes), len(weights))
		}
		var wsum float64
		for i, w := range weights {
			if w <= 0 {
				t.Fatalf("n=%d: non-positive weight %g", n, w)
			}
			wsum += w
			if nodes[i] < -1 || nodes[i] > 1 {
				t.Fatalf("n=%d: node %g out of [-1,1]", n, nodes[i])
			}
			if i > 0 && nodes[i] <= nodes[i-1] {
				t.Fatalf("n=%d: nodes not increasing", n)
			}
		}
		if !approx(wsum, 2, 1e-12) {
			t.Fatalf("n=%d: weights sum to %g, want 2", n, wsum)
		}
	}
	// The rule the engine reads is the generator's glOrder-point rule.
	nodes, weights := gaussLegendreRule(glOrder)
	for i := range nodes {
		if math.Float64bits(nodes[i]) != math.Float64bits(glNodes[i]) || math.Float64bits(weights[i]) != math.Float64bits(glWeights[i]) {
			t.Fatalf("glNodes/glWeights[%d] differ from gaussLegendreRule(%d)", i, glOrder)
		}
	}
}
