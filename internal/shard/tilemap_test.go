package shard

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
)

func world() geom.Rect {
	return geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10000, 10000)}
}

func TestTileMapOwnershipInvariants(t *testing.T) {
	m, err := Uniform(world(), 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for range 2000 {
		// Random region, some deliberately outside the world.
		cx := rng.Float64()*14000 - 2000
		cy := rng.Float64()*14000 - 2000
		r := geom.RectCentered(geom.Pt(cx, cy), rng.Float64()*800, rng.Float64()*800)

		replicas := m.ShardsOverlapping(r)
		if len(replicas) == 0 {
			t.Fatalf("region %v has no replica shard", r)
		}
		if !slices.IsSorted(replicas) {
			t.Fatalf("replica set %v not sorted", replicas)
		}
		if !slices.Contains(replicas, m.Owner(r)) {
			t.Fatalf("owner %d of %v not in its replica set %v", m.Owner(r), r, replicas)
		}

		// A probe region intersecting the object's region must share a
		// shard with it — the query-completeness invariant.
		qx := rng.Float64()*14000 - 2000
		qy := rng.Float64()*14000 - 2000
		q := geom.RectCentered(geom.Pt(qx, qy), rng.Float64()*1500, rng.Float64()*1500)
		if r.Intersects(q) {
			shared := false
			for _, s := range m.ShardsOverlapping(q) {
				if slices.Contains(replicas, s) {
					shared = true
					break
				}
			}
			if !shared {
				t.Fatalf("query %v intersects object %v but shares no shard (%v vs %v)",
					q, r, m.ShardsOverlapping(q), replicas)
			}
		}

		// Point home = shard of its (clamped) tile, member of any rect
		// cover containing it.
		p := geom.Pt(cx, cy)
		if !slices.Contains(m.ShardsOverlapping(geom.RectAt(p)), m.ShardOf(p)) {
			t.Fatalf("point %v home %d not in its rect cover", p, m.ShardOf(p))
		}
	}
}

// A box whose edges overflowed to ±Inf (a far-away region expanded by
// a huge tau) still covers every shard.
func TestShardsOverlappingInfiniteBox(t *testing.T) {
	m, err := Uniform(world(), 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	inf := math.Inf(1)
	if got := m.ShardsOverlapping(geom.Rect{Lo: geom.Pt(-inf, -inf), Hi: geom.Pt(inf, inf)}); !slices.Equal(got, m.AllShards()) {
		t.Fatalf("infinite box covers %v, want %v", got, m.AllShards())
	}
	if got, want := m.ShardOf(geom.Pt(inf, inf)), m.ShardOf(geom.Pt(1e9, 1e9)); got != want {
		t.Fatalf("point at +Inf on shard %d, far point on %d", got, want)
	}
}

func TestTileMapSpecRoundTrip(t *testing.T) {
	cases := []*TileMap{}
	m, err := Uniform(world(), 8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, m)

	// Density-aware: all weight in the first tile row → shard 0 gets a
	// narrow band, the rest split the remainder.
	weights := make([]float64, 16)
	for i := range weights {
		weights[i] = 0.01
	}
	weights[0], weights[1] = 100, 100
	m2, err := FromWeights(world(), 4, 4, 3, weights, ContiguousPartitioner{})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, m2)

	for _, m := range cases {
		spec := m.Spec()
		back, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if back.Spec() != spec {
			t.Errorf("round trip drift: %q -> %q", spec, back.Spec())
		}
		if !slices.Equal(back.assign, m.assign) || back.world != m.world ||
			back.tx != m.tx || back.ty != m.ty || back.shards != m.shards {
			t.Errorf("Parse(%q) != original", spec)
		}
	}

	for _, bad := range []string{
		"",
		"grid:4x4",
		"grid:0x4@0,0,1,1;shards=2",
		"grid:4x4@0,0,1,1",
		"grid:4x4@0,0,1,1;shards=0",
		"grid:2x2@0,0,1,1;shards=5",              // more shards than tiles
		"grid:2x2@0,0,1,1;shards=2;assign=0x4",   // shard 1 owns nothing
		"grid:2x2@0,0,1,1;shards=2;assign=0,1",   // short assignment
		"grid:2x2@0,0,1,1;shards=2;assign=0x3,7", // out-of-range shard
		"grid:2x2@0,0,1,1;shards=2;assign=0x3,1x999999999999", // long assignment, refused before it is expanded
		"grid:99999999x99999999@0,0,1,1;shards=2",             // more tiles than a spec may name
		"grid:3037000500x3037000500@0,0,1,1;shards=2",         // tx*ty overflows
		"grid:2x2@NaN,0,1,1;shards=1",                         // no extent to cut tiles from
		"grid:2x2@0,0,Inf,1;shards=1",
		"grid:2x2@0,0,0,1;shards=2;assign=0x2,1x2", // zero extent, refused on the assign path too
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestContiguousPartitionerBalancesWeight(t *testing.T) {
	// Uniform weights: equal-count contiguous runs.
	m, err := Uniform(world(), 8, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 1, 1, 2, 2, 3, 3}; !slices.Equal(m.assign, want) {
		t.Errorf("uniform 8/4 assignment = %v, want %v", m.assign, want)
	}

	// Zipf-ish weights: the heavy head is split finer than the tail.
	weights := []float64{8, 4, 2, 1, 1, 1, 1, 1}
	assign, err := ContiguousPartitioner{}.Partition(weights, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(assign) {
		t.Fatalf("assignment %v not contiguous", assign)
	}
	headShards := assign[1] // tile 1 (weight 4) should not share shard 0 with the weight-8 head
	if assign[0] == headShards {
		t.Errorf("density-aware split left the two heaviest tiles on one shard: %v", assign)
	}
	// Every shard must own at least one tile even under extreme skew.
	skew := []float64{1000, 0, 0, 0}
	assign, err = ContiguousPartitioner{}.Partition(skew, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := range 4 {
		if !slices.Contains(assign, s) {
			t.Fatalf("shard %d starved under skew: %v", s, assign)
		}
	}
}

// FuzzParseTileSpec: a spec string is an error or a map whose Spec()
// parses back to the same map — and never a panic or an allocation the
// string's length does not justify.
func FuzzParseTileSpec(f *testing.F) {
	f.Add("grid:4x2@0,0,10000,10000;shards=2")
	f.Add("grid:2x2@0,0,1,1;shards=2;assign=0x3,1")
	f.Add("grid:3x1@-5e-324,-0,1e308,Inf;shards=3;assign=2,0,1")
	f.Add("grid:2x2@NaN,0,1,1;shards=1")
	f.Add("grid:99999999x99999999@0,0,1,1;shards=2;assign=0x999999999999")
	f.Add("grid:1x1@1,1,0,0;shards=1;assign=0;shards=1")
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := Parse(spec)
		if err != nil {
			if m != nil {
				t.Fatalf("Parse(%q) returned a map with its error %v", spec, err)
			}
			return
		}
		again, err := Parse(m.Spec())
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not parse: %v", spec, m.Spec(), err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("Parse(%q) = %+v, but its spec %q parses to %+v", spec, m, m.Spec(), again)
		}
	})
}
