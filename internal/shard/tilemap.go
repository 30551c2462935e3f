// Package shard partitions the object space across an engine fleet and
// routes queries and updates to the shards that can answer them.
//
// The partitioning unit is a static grid of contiguous rectangular
// tiles over the world rectangle (the blueprint is the contiguous-zone
// partitioning of "Towards a Scalable Dynamic Spatial Database
// System"); each tile is assigned to exactly one shard. Edge tiles
// extend to infinity, so every point in the plane — including objects
// that wander outside the nominal world — has a well-defined tile and
// shard.
//
// Ownership and replication follow from the paper's probe-region
// lemma: a query only touches objects whose uncertainty region
// intersects its expanded (probe/guard) region, so
//
//   - a point object lives on exactly one shard — the shard of the
//     tile containing its location;
//   - an uncertain object is replicated to every shard whose tiles its
//     region intersects; every replica evaluates it to the
//     bit-identical probability, so a query merge may keep any one
//     copy, and no replica is singled out to own it;
//   - a query is fanned to exactly the shards whose tiles intersect
//     its probe/guard region; by the replication rule each candidate
//     object is present on at least one queried shard.
//
// The default tile→shard assignment (Uniform) splits the tiles, in
// row-major order, into contiguous runs whose lengths differ by at most
// one tile. Any other assignment — an uneven one that spreads a
// hotspot over more shards, say — is written out in the assign= clause
// of the map's spec string, which operators pass with -tiles. The
// whole map round-trips through that compact string so the router and
// every shard can agree on — and health-check — the fleet geometry.
package shard

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// TileMap is an immutable tile→shard assignment over a world
// rectangle: tx × ty tiles in row-major order, each owned by one of
// NumShards() shards.
type TileMap struct {
	world  geom.Rect
	tx, ty int
	assign []int // tile index (row-major) -> shard
	shards int
}

// Uniform builds a tile map with the default assignment: the tiles, in
// row-major order, split into contiguous runs whose lengths differ by
// at most one tile. Contiguity keeps each shard's territory a band of
// adjacent tiles, which bounds the replication factor of small
// straddling regions to neighboring shards.
func Uniform(world geom.Rect, tx, ty, shards int) (*TileMap, error) {
	if err := checkWorld(world); err != nil {
		return nil, err
	}
	if tx <= 0 || ty <= 0 {
		return nil, fmt.Errorf("shard: tile grid %dx%d must be positive", tx, ty)
	}
	n := tx * ty
	if shards <= 0 {
		return nil, fmt.Errorf("shard: a tile map wants at least 1 shard, got %d", shards)
	}
	if n < shards {
		return nil, fmt.Errorf("shard: %d tiles cannot cover %d shards", n, shards)
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i * shards / n
	}
	return &TileMap{world: world, tx: tx, ty: ty, assign: assign, shards: shards}, nil
}

// checkWorld refuses a world rectangle tiles cannot be cut from: the
// tile of a point is its offset into the world over the world's extent,
// so the extent must be a positive finite number.
func checkWorld(world geom.Rect) error {
	if err := world.Validate(); err != nil {
		return fmt.Errorf("shard: world rect: %w", err)
	}
	if w, h := world.Width(), world.Height(); !(w > 0 && h > 0) || math.IsInf(w+h, 0) {
		return fmt.Errorf("shard: world rect %v has no finite positive extent", world)
	}
	return nil
}

func (m *TileMap) validate() error {
	if len(m.assign) != m.tx*m.ty {
		return fmt.Errorf("shard: assignment covers %d tiles, grid has %d", len(m.assign), m.tx*m.ty)
	}
	seen := make([]bool, m.shards)
	for i, s := range m.assign {
		if s < 0 || s >= m.shards {
			return fmt.Errorf("shard: tile %d assigned to shard %d (fleet size %d)", i, s, m.shards)
		}
		seen[s] = true
	}
	for s, ok := range seen {
		if !ok {
			return fmt.Errorf("shard: shard %d owns no tiles", s)
		}
	}
	return nil
}

// NumShards returns the fleet size.
func (m *TileMap) NumShards() int { return m.shards }

// tileCoord maps a coordinate to a clamped tile column/row: positions
// outside the world fall into the nearest edge tile. The clamp is done
// in floating point, where an infinite coordinate (a box edge that
// overflowed) still compares the right way; converting it first would
// not.
func tileCoord(v, lo, extent float64, n int) int {
	f := (v - lo) / extent * float64(n)
	if !(f >= 1) {
		return 0
	}
	if f >= float64(n) {
		return n - 1
	}
	return int(f)
}

// TileOf returns the row-major tile index holding p (clamped).
func (m *TileMap) TileOf(p geom.Point) int {
	cx := tileCoord(p.X, m.world.Lo.X, m.world.Width(), m.tx)
	cy := tileCoord(p.Y, m.world.Lo.Y, m.world.Height(), m.ty)
	return cy*m.tx + cx
}

// ShardOf returns the shard owning the tile that holds p — the home of
// a point object at p.
func (m *TileMap) ShardOf(p geom.Point) int { return m.assign[m.TileOf(p)] }

// ShardsOverlapping returns the sorted set of shards whose tiles
// intersect r (clamped to the grid) — the replica set of an uncertain
// object with region r, and the fan-out set of a query with probe
// region r.
func (m *TileMap) ShardsOverlapping(r geom.Rect) []int {
	x0 := tileCoord(r.Lo.X, m.world.Lo.X, m.world.Width(), m.tx)
	x1 := tileCoord(r.Hi.X, m.world.Lo.X, m.world.Width(), m.tx)
	y0 := tileCoord(r.Lo.Y, m.world.Lo.Y, m.world.Height(), m.ty)
	y1 := tileCoord(r.Hi.Y, m.world.Lo.Y, m.world.Height(), m.ty)
	var out []int
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			s := m.assign[cy*m.tx+cx]
			if !slices.Contains(out, s) {
				out = append(out, s)
			}
		}
	}
	slices.Sort(out)
	return out
}

// AllShards returns 0..NumShards()-1 — the fan-out set of a query with
// an unbounded guard (NN before tau is known).
func (m *TileMap) AllShards() []int {
	out := make([]int, m.shards)
	for i := range out {
		out[i] = i
	}
	return out
}

// Spec serializes the map to its canonical string form:
//
//	grid:TXxTY@X0,Y0,X1,Y1;shards=N;assign=RLE
//
// where RLE is a comma-separated run-length encoding of the row-major
// tile assignment ("0x3,1x3" = three tiles on shard 0, three on shard
// 1; a run of one drops the "x1"). The assign clause is omitted when
// it equals Uniform's assignment. Floats use the
// shortest exact representation, so Parse(Spec()) reproduces the map
// bit-for-bit.
func (m *TileMap) Spec() string {
	var b strings.Builder
	fmt.Fprintf(&b, "grid:%dx%d@%s,%s,%s,%s;shards=%d",
		m.tx, m.ty,
		fmtF(m.world.Lo.X), fmtF(m.world.Lo.Y), fmtF(m.world.Hi.X), fmtF(m.world.Hi.Y),
		m.shards)
	if !m.uniform() {
		b.WriteString(";assign=")
		b.WriteString(rleEncode(m.assign))
	}
	return b.String()
}

// uniform reports whether m's assignment is Uniform's.
func (m *TileMap) uniform() bool {
	for i, s := range m.assign {
		if s != i*m.shards/len(m.assign) {
			return false
		}
	}
	return true
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func rleEncode(assign []int) string {
	var b strings.Builder
	for i := 0; i < len(assign); {
		j := i
		for j < len(assign) && assign[j] == assign[i] {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", assign[i])
		if j-i > 1 {
			fmt.Fprintf(&b, "x%d", j-i)
		}
		i = j
	}
	return b.String()
}

// maxSpecTiles bounds the grid a spec may describe: Parse allocates per
// tile and per shard, and a spec is a command-line string, so
// "grid:99999999x99999999" must be an error and not an allocation. A
// shard count is refused unless every shard can own a tile, so it is
// bounded by the tile count before anything is sized from it.
const maxSpecTiles = 1 << 16

// Parse decodes a Spec() string.
func Parse(spec string) (*TileMap, error) {
	fail := func(why string) (*TileMap, error) {
		return nil, fmt.Errorf("shard: bad tile spec %q: %s", spec, why)
	}
	body, ok := strings.CutPrefix(spec, "grid:")
	if !ok {
		return fail(`missing "grid:" prefix`)
	}
	parts := strings.Split(body, ";")
	grid, world, ok := strings.Cut(parts[0], "@")
	if !ok {
		return fail("missing @world clause")
	}
	txs, tys, ok := strings.Cut(grid, "x")
	if !ok {
		return fail("grid wants TXxTY")
	}
	tx, err1 := strconv.Atoi(txs)
	ty, err2 := strconv.Atoi(tys)
	if err1 != nil || err2 != nil || tx <= 0 || ty <= 0 {
		return fail("grid wants positive TXxTY")
	}
	if tx > maxSpecTiles/ty { // tx*ty > maxSpecTiles, without the overflow
		return fail(fmt.Sprintf("grid has more than %d tiles", maxSpecTiles))
	}
	cs := strings.Split(world, ",")
	if len(cs) != 4 {
		return fail("world wants X0,Y0,X1,Y1")
	}
	var c [4]float64
	for i, s := range cs {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return fail("world coordinate " + s)
		}
		c[i] = v
	}
	shards, assignRLE := 0, ""
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return fail("clause " + p)
		}
		switch k {
		case "shards":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return fail("shards wants a positive count")
			}
			shards = n
		case "assign":
			assignRLE = v
		default:
			return fail("unknown clause " + k)
		}
	}
	if shards == 0 {
		return fail("missing shards clause")
	}
	if shards > tx*ty {
		return fail(fmt.Sprintf("%d shards cannot each own one of %d tiles", shards, tx*ty))
	}
	wr := geom.RectFromCorners(geom.Pt(c[0], c[1]), geom.Pt(c[2], c[3]))
	if assignRLE == "" {
		return Uniform(wr, tx, ty, shards)
	}
	assign, err := rleDecode(assignRLE, tx*ty)
	if err != nil {
		return fail(err.Error())
	}
	m := &TileMap{world: wr, tx: tx, ty: ty, assign: assign, shards: shards}
	if err := checkWorld(wr); err != nil {
		return nil, err
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// rleDecode expands an assign clause, which must not name more than
// tiles tiles.
func rleDecode(s string, tiles int) ([]int, error) {
	var out []int
	for _, run := range strings.Split(s, ",") {
		ss, cnt, hasCount := strings.Cut(run, "x")
		sh, err := strconv.Atoi(ss)
		if err != nil {
			return nil, fmt.Errorf("assign run %q", run)
		}
		n := 1
		if hasCount {
			n, err = strconv.Atoi(cnt)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("assign run %q", run)
			}
		}
		if n > tiles-len(out) {
			return nil, fmt.Errorf("assign covers more than the grid's %d tiles", tiles)
		}
		for range n {
			out = append(out, sh)
		}
	}
	return out, nil
}
