package mcbound

import (
	"math"
	"math/rand"
	"testing"
)

// Certainty bound: once the undrawn mass cannot move the full-budget
// mean across qp, the decision is fixed regardless of delta.
func TestDecidedCertainty(t *testing.T) {
	// 60 of 100 samples already sum to 55: full-budget mean >= 0.55
	// even if every remaining draw is 0 — decided above qp=0.5.
	p, done := Decided(55, 55, 60, 100, 0.5, 1e-300)
	if !done {
		t.Fatalf("certainty-above not decided")
	}
	if p < 0.5 {
		t.Fatalf("decided-above returned mean %v < qp", p)
	}
	// 60 samples sum to 5: even 40 more ones give mean 0.45 < 0.5.
	p, done = Decided(5, 5, 60, 100, 0.5, 1e-300)
	if !done {
		t.Fatalf("certainty-below not decided")
	}
	if p >= 0.5 {
		t.Fatalf("decided-below returned mean %v >= qp", p)
	}
}

// Borderline running means with a huge remaining budget must not be
// decided: both confidence radii exceed the gap to qp.
func TestDecidedBorderlineUndecided(t *testing.T) {
	// mean 0.5, qp 0.5+1e-9, sample variance maximal (indicators).
	if _, done := Decided(50, 50, 100, 1_000_000, 0.5+1e-9, 1e-6); done {
		t.Fatalf("borderline candidate decided early")
	}
}

// Zero-variance streams fall back to the Bernstein bias term, which
// shrinks as 1/(n-1) and decides far earlier than Hoeffding's 1/sqrt(n).
func TestDecidedZeroVariance(t *testing.T) {
	qp := 0.5
	n := 64
	// All samples exactly 0.9: variance 0, mean 0.9.
	sum := 0.9 * float64(n)
	sumSq := 0.81 * float64(n)
	p, done := Decided(sum, sumSq, n, 1_000_000, qp, 1e-6)
	if !done {
		t.Fatalf("zero-variance stream not decided at n=%d", n)
	}
	if math.Abs(p-0.9) > 1e-12 {
		t.Fatalf("decided mean = %v, want 0.9", p)
	}
}

// The decision must agree with the true side of qp with overwhelming
// probability: stream indicator samples with known bias and check that
// every early decision lands on the correct side.
func TestDecidedAgreesWithTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		truth := rng.Float64()
		qp := rng.Float64()
		total := 4096
		var sum float64
		for n := 1; n <= total; n++ {
			v := 0.0
			if rng.Float64() < truth {
				v = 1.0
			}
			sum += v
			if n < 2 || n == total {
				continue
			}
			if p, done := Decided(sum, sum, n, total, qp, 1e-6); done {
				if math.Abs(truth-qp) < 0.05 {
					break // too close to call; either side is within the bound's risk
				}
				if (p >= qp) != (truth >= qp) {
					t.Fatalf("trial %d: decided %v at n=%d but truth %v vs qp %v",
						trial, p, n, truth, qp)
				}
				break
			}
		}
	}
}

// TestDeriveSeedNoCollisions checks the splitmix-style worker seed
// derivation: for one parent, every child index must get a distinct
// seed (the additive scheme it replaced collided whenever two parent
// draws differed by less than the worker count).
func TestDeriveSeedNoCollisions(t *testing.T) {
	parents := []int64{0, 1, -1, 42, 1 << 40}
	seen := make(map[int64][2]int, 4096)
	for pi, p := range parents {
		for c := 0; c < 512; c++ {
			s := DeriveSeed(p, c)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: parent[%d] child %d vs parent[%d] child %d",
					pi, c, prev[0], prev[1])
			}
			seen[s] = [2]int{pi, c}
		}
	}
	// Adjacent parents must not produce overlapping child streams the
	// way parent+child addition does.
	if DeriveSeed(10, 1) == DeriveSeed(11, 0) {
		t.Fatal("adjacent parents alias child seeds")
	}
}

// TestAdaptive pins the driver's contract over constant, alternating
// and random streams: how many draws it makes, when it may report an
// early stop, and which side of qp an early estimate lands on.
func TestAdaptive(t *testing.T) {
	constant := func(v float64) func() func() float64 {
		return func() func() float64 { return func() float64 { return v } }
	}
	random := func(seed int64, bias float64) func() func() float64 {
		return func() func() float64 {
			rng := rand.New(rand.NewSource(seed))
			return func() float64 {
				if rng.Float64() < bias {
					return 1
				}
				return 0
			}
		}
	}
	cases := []struct {
		name         string
		total, block int
		qp, delta    float64
		stream       func() func() float64
		wantDrawn    int // exact draws expected; -1 = only the invariants below
		wantEarly    bool
	}{
		// qp <= 0: no decision to prove — the full budget, never early.
		{"unconstrained", 1000, 64, 0, 1e-6, constant(1), 1000, false},
		{"negative qp", 1000, 64, -1, 1e-6, random(1, 0.5), 1000, false},
		// A constant stream stops after the first block the certainty
		// bound allows: all-ones once block·k/total >= qp, all-zeros once
		// (total − block·k)/total < qp; the zero-variance Bernstein term
		// decides these two within the first block.
		{"ones", 4096, 64, 0.5, 1e-6, constant(1), 64, true},
		{"zeros", 4096, 64, 0.5, 1e-6, constant(0), 64, true},
		// delta so small no confidence bound ever fires: only the
		// certainty bound stops the stream, at the first block boundary
		// where the drawn ones alone reach qp·total (5 blocks: 320/1000
		// >= 0.3 > 256/1000) ...
		{"ones, certainty only", 1000, 64, 0.3, 1e-300, constant(1), 320, true},
		// ... or the undrawn rest can no longer reach it (11 blocks:
		// (1000−704)/1000 < 0.3 <= (1000−640)/1000).
		{"zeros, certainty only", 1000, 64, 0.3, 1e-300, constant(0), 704, true},
		// Budgets below, equal to, and not a multiple of the block.
		{"total < block", 10, 64, 0.5, 1e-6, random(2, 0.5), 10, false},
		{"total == block", 64, 64, 0.5, 1e-6, constant(1), 64, false},
		{"ragged total, undecided", 150, 64, 0.5, 1e-6, alternating, 150, false},
		{"ragged total, decided", 150, 64, 0.9, 1e-6, constant(0), 64, true},
		{"block <= 0", 100, 0, 0.5, 1e-6, constant(1), 100, false},
		{"total <= 0", 0, 64, 0.5, 1e-6, constant(1), 0, false},
		{"random low", 4096, 64, 0.9, 1e-6, random(3, 0.1), -1, true},
		{"random high", 4096, 64, 0.1, 1e-6, random(4, 0.9), -1, true},
		{"random borderline", 512, 64, 0.5, 1e-6, random(5, 0.5), -1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			next := tc.stream()
			asked := 0
			p, drawn, early := Adaptive(tc.total, tc.block, tc.qp, tc.delta, func(n int, tally Tally) Tally {
				if n <= 0 || (tc.qp > 0 && tc.block > 0 && n > tc.block) {
					t.Errorf("asked for a block of %d (block size %d)", n, tc.block)
				}
				asked += n
				return perDraw(next)(n, tally)
			})
			if asked != drawn {
				t.Errorf("reported %d draws, asked for %d", drawn, asked)
			}
			if tc.wantDrawn >= 0 && drawn != tc.wantDrawn {
				t.Errorf("drew %d, want %d", drawn, tc.wantDrawn)
			}
			if early != tc.wantEarly {
				t.Errorf("early = %v, want %v (drew %d)", early, tc.wantEarly, drawn)
			}
			if tc.total > 0 && drawn != tc.total && (tc.block <= 0 || drawn%tc.block != 0) {
				t.Errorf("drew %d: neither the total %d nor a multiple of the block %d", drawn, tc.total, tc.block)
			}
			if early && drawn >= tc.total {
				t.Errorf("early stop after the full budget (%d of %d)", drawn, tc.total)
			}
			if !early && drawn != max(tc.total, 0) {
				t.Errorf("not early, yet drew %d of %d", drawn, tc.total)
			}
			if p < 0 || p > 1 {
				t.Errorf("estimate %v outside [0, 1]", p)
			}
			if early {
				// Replay the stream to the full budget: the early
				// estimate must sit on the side of qp the bound proved,
				// which for these clear-cut streams is the full-budget
				// side too.
				full, _, _ := Adaptive(tc.total, tc.block, 0, tc.delta, perDraw(tc.stream()))
				if (p >= tc.qp) != (full >= tc.qp) {
					t.Errorf("early estimate %v and full-budget estimate %v disagree about qp=%v", p, full, tc.qp)
				}
			}
		})
	}
}

// perDraw adapts a one-draw-at-a-time stream to Adaptive's block
// callback.
func perDraw(next func() float64) func(int, Tally) Tally {
	return func(n int, t Tally) Tally {
		for ; n > 0; n-- {
			t.Add(next())
		}
		return t
	}
}

// alternating yields 1, 0, 1, 0, …: mean exactly 0.5 with maximal
// variance, which no bound can separate from qp = 0.5.
func alternating() func() float64 {
	i := 0
	return func() float64 {
		i++
		return float64(i % 2)
	}
}
