package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); !near(got, 2.5) {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestWindowStats(t *testing.T) {
	// 100 operations of 1..100 ms completing inside a 2 s window.
	var ss []sample
	for i := range 100 {
		ss = append(ss, sample{end: time.Duration(i) * 10 * time.Millisecond, lat: time.Duration(i+1) * time.Millisecond, ok: true})
	}
	// Ignored: a failed operation, and a straggler finishing after the bell.
	ss = append(ss, sample{end: 500 * time.Millisecond, lat: time.Hour})
	ss = append(ss, sample{end: 2*time.Second + time.Millisecond, lat: time.Hour, ok: true})
	rate, p90 := windowStats(ss, 2*time.Second)
	if !near(rate, 50) || !near(p90, 90.1) {
		t.Errorf("windowStats = %v ops/s, p90 %v ms; want 50, 90.1", rate, p90)
	}
}

func TestRoundTimes(t *testing.T) {
	rounds, solo, sat := roundTimes(20)
	if rounds != 20 || solo != 400*time.Millisecond || sat != 600*time.Millisecond {
		t.Errorf("roundTimes(20) = %d, %v, %v; want 20, 400ms, 600ms", rounds, solo, sat)
	}
	rounds, solo, sat = roundTimes(0.6)
	if rounds != minRounds || solo != 80*time.Millisecond || sat != 120*time.Millisecond {
		t.Errorf("roundTimes(0.6) = %d, %v, %v; want %d, 80ms, 120ms", rounds, solo, sat, minRounds)
	}
}

func TestGoodQuartile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := goodQuartile(xs, false); !near(got, 2) {
		t.Errorf("goodQuartile(lower is better) = %v, want 2", got)
	}
	if got := goodQuartile(xs, true); !near(got, 4) {
		t.Errorf("goodQuartile(higher is better) = %v, want 4", got)
	}
}

func TestHostProbe(t *testing.T) {
	p := newHostProbe()
	// One cycle through every slot: following it from 0 comes back to 0
	// after exactly len(next) steps and not before.
	at, steps := uint32(0), 0
	for {
		at = p.next[at]
		steps++
		if at == 0 || steps > len(p.next) {
			break
		}
	}
	if steps != len(p.next) {
		t.Errorf("the table's cycle through 0 has %d steps, want %d", steps, len(p.next))
	}
	r := p.read()
	if r.wall <= 0 || r.cpu <= 0 {
		t.Errorf("reading %+v, want positive times", r)
	}
	wall, cpu := speedBetween(hostRef{wall: hostRefNominalMS, cpu: 2 * hostRefNominalMS}, hostRef{wall: 3 * hostRefNominalMS, cpu: 2 * hostRefNominalMS})
	if !near(wall, 2) || !near(cpu, 2) {
		t.Errorf("speedBetween = %v, %v; want 2, 2", wall, cpu)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([2.1, 1.9, 2.0, 2.4, 2.2, 1.8, 2.3, 2.05, 1.95, 2.6], n=4)
	// → [1.9375, 2.075, 2.325]
	q1, q3 := quartiles([]float64{2.1, 1.9, 2.0, 2.4, 2.2, 1.8, 2.3, 2.05, 1.95, 2.6})
	if !near(q1, 1.9375) || !near(q3, 2.325) {
		t.Errorf("quartiles = %v, %v; want 1.9375, 2.325", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) → [1.5, 3.0, 4.5]
	q1, q3 = quartiles([]float64{5, 4, 3, 2, 1})
	if !near(q1, 1.5) || !near(q3, 4.5) {
		t.Errorf("quartiles = %v, %v; want 1.5, 4.5", q1, q3)
	}
}

func TestBoundFor(t *testing.T) {
	for _, c := range []struct{ spread, want float64 }{{0.004, 0.05}, {0.026, 0.10}, {0.072, 0.25}, {0.05, 0.15}, {0.2, 0.25}} {
		if got := boundFor(c.spread); !near(got, c.want) {
			t.Errorf("boundFor(%v) = %v, want %v", c.spread, got, c.want)
		}
	}
}
