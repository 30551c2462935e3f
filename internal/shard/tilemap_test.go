package shard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
)

// Owner returns the owner shard of an uncertain object with region r:
// the shard holding the region's center. The owner is always a member
// of ShardsOverlapping(r); nothing outside the tests needs it.
func (m *TileMap) Owner(r geom.Rect) int { return m.ShardOf(r.Center()) }

func world() geom.Rect {
	return geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(10000, 10000)}
}

// randomTileSpec returns the spec of a random tile map over world and
// its assignment: a tx×ty grid whose tiles go to shards at random, not
// necessarily in contiguous runs, with every shard owning a tile.
func randomTileSpec(rng *rand.Rand, world geom.Rect, tx, ty, shards int) (string, []int) {
	assign := make([]int, tx*ty)
	for i, tile := range rng.Perm(len(assign)) {
		if i < shards {
			assign[tile] = i
		} else {
			assign[tile] = rng.Intn(shards)
		}
	}
	spec := fmt.Sprintf("grid:%dx%d@%s,%s,%s,%s;shards=%d;assign=%s", tx, ty,
		fmtF(world.Lo.X), fmtF(world.Lo.Y), fmtF(world.Hi.X), fmtF(world.Hi.Y), shards, rleEncode(assign))
	return spec, assign
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

	// Random assign= clauses, not necessarily contiguous.
	rng := rand.New(rand.NewSource(12))
	for range 20 {
		tx, ty := 1+rng.Intn(6), 1+rng.Intn(6)
		shards := 1 + rng.Intn(tx*ty)
		spec, assign := randomTileSpec(rng, world(), tx, ty, shards)
		m, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if !slices.Equal(m.assign, assign) {
			t.Fatalf("Parse(%q) assigns %v, want %v", spec, m.assign, assign)
		}
		cases = append(cases, m)
	}

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
		"grid:2x2@0,0,0,1;shards=2;assign=0x2,1x2",    // zero extent, refused on the assign path too
		"grid:1x1@0,0,1,1;shards=1000000000;assign=0", // more shards than tiles, refused before anything is sized from it
		"grid:1x1@0,0,1,1;shards=9223372036854775807;assign=0",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// Uniform's assignment, pinned: contiguous row-major runs whose
// lengths differ by at most one tile, on grids the shards do and do not
// divide.
func TestUniformAssignment(t *testing.T) {
	for _, c := range []struct {
		tx, ty, shards int
		want           []int
	}{
		{8, 1, 4, []int{0, 0, 1, 1, 2, 2, 3, 3}},
		{5, 3, 4, []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3}},
		{7, 1, 3, []int{0, 0, 0, 1, 1, 2, 2}},
		{1, 1, 1, []int{0}},
	} {
		m, err := Uniform(world(), c.tx, c.ty, c.shards)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(m.assign, c.want) {
			t.Errorf("Uniform %dx%d over %d shards = %v, want %v", c.tx, c.ty, c.shards, m.assign, c.want)
		}
		if strings.Contains(m.Spec(), "assign=") {
			t.Errorf("Uniform %dx%d over %d shards: spec %q spells out the default assignment", c.tx, c.ty, c.shards, m.Spec())
		}
	}
	if _, err := Uniform(world(), 2, 2, 5); err == nil {
		t.Error("Uniform gave 5 shards 4 tiles")
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
	f.Add("grid:1x1@0,0,1,1;shards=1000000000;assign=0")
	f.Add("grid:1x1@0,0,1,1;shards=9223372036854775807;assign=0")
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
