package wire

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/uncertain"
)

// edgeSets are the values a text codec gets wrong first: an empty
// shard's +Inf tau, ids at both ends of int64, signed zero, subnormals.
func edgeSets() []core.NNCandidateSet {
	sub := math.SmallestNonzeroFloat64
	return []core.NNCandidateSet{
		{Tau: math.Inf(1)},
		{Tau: 141.4213562373095, Version: 7, NodeAccesses: 3,
			Candidates: []core.NNCandidate{{ID: 42, Loc: [2]float64{1000, 1000.5}}}},
		{Tau: 0.1, Truncated: true, Version: math.MaxUint64, NodeAccesses: math.MaxInt64,
			Candidates: []core.NNCandidate{{ID: 1, Loc: [2]float64{0.1, 0.2}}, {ID: 2, Loc: [2]float64{0.3, 0.7}}}},
		{Tau: math.MaxFloat64, Candidates: []core.NNCandidate{
			{ID: math.MinInt64, Loc: [2]float64{math.Copysign(0, -1), sub}},
			{ID: -1, Loc: [2]float64{-sub, 0}},
			{ID: 0, Loc: [2]float64{-math.MaxFloat64, math.MaxFloat64}},
			{ID: math.MaxInt64 - 1, Loc: [2]float64{1e-300, -1e300}},
			{ID: math.MaxInt64, Loc: [2]float64{math.Pi, math.E}},
		}},
		{Tau: math.Copysign(0, -1), Candidates: []core.NNCandidate{{ID: math.MaxInt64}}},
	}
}

func randomSet(rng *rand.Rand) core.NNCandidateSet {
	set := core.NNCandidateSet{
		Tau:          math.Float64frombits(rng.Uint64() &^ (1 << 63)),
		Truncated:    rng.Intn(2) == 0,
		NodeAccesses: rng.Int63(),
		Version:      rng.Uint64(),
	}
	if math.IsNaN(set.Tau) {
		set.Tau = math.Inf(1)
	}
	id := uncertain.ID(rng.Int63()) - uncertain.ID(rng.Int63())
	for range rng.Intn(40) {
		// Gaps of every varint width; stop before the id would wrap.
		gap := uncertain.ID(rng.Uint64()>>(1+rng.Intn(63))) + 1
		if id > math.MaxInt64-gap {
			break
		}
		id += gap
		c := core.NNCandidate{ID: id}
		for axis := range c.Loc {
			v := math.Float64frombits(rng.Uint64())
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = rng.NormFloat64() * 1e4
			}
			c.Loc[axis] = v
		}
		set.Candidates = append(set.Candidates, c)
	}
	return set
}

// sameSet requires every field integer- or Float64bits-equal.
func sameSet(t *testing.T, got, want core.NNCandidateSet) {
	t.Helper()
	if got.Version != want.Version || got.Truncated != want.Truncated || got.NodeAccesses != want.NodeAccesses ||
		math.Float64bits(got.Tau) != math.Float64bits(want.Tau) || len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("header differs:\n got %+v\nwant %+v", got, want)
	}
	for i, w := range want.Candidates {
		g := got.Candidates[i]
		if g.ID != w.ID || math.Float64bits(g.Loc[0]) != math.Float64bits(w.Loc[0]) ||
			math.Float64bits(g.Loc[1]) != math.Float64bits(w.Loc[1]) {
			t.Fatalf("candidate %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestNNCandidateSetRoundTrip: whatever is encoded is what is decoded,
// bit for bit, and the frame never exceeds the size the reader caps at.
func TestNNCandidateSetRoundTrip(t *testing.T) {
	sets := edgeSets()
	rng := rand.New(rand.NewSource(17))
	for range 2000 {
		sets = append(sets, randomSet(rng))
	}
	// buf is reused from set to set: a set decoded into it is the same,
	// and lands in its array whenever that is large enough.
	var buf []core.NNCandidate
	for _, set := range sets {
		frame := AppendNNCandidateSet(nil, set)
		if limit := MaxNNCandidateSetSize(len(set.Candidates)); len(frame) > limit {
			t.Fatalf("%d candidates encode to %d bytes, over the announced maximum %d", len(set.Candidates), len(frame), limit)
		}
		got, err := DecodeNNCandidateSet(frame, nil)
		if err != nil {
			t.Fatalf("decoding an encoded set: %v\nset: %+v", err, set)
		}
		sameSet(t, got, set)
		into, err := DecodeNNCandidateSet(frame, buf)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, into, set)
		if n := len(set.Candidates); n > 0 && cap(buf) >= n && &into.Candidates[0] != &buf[:1][0] {
			t.Fatalf("%d candidates decoded into a new array beside a buffer of %d", n, cap(buf))
		}
		if cap(into.Candidates) > cap(buf) {
			buf = into.Candidates
		}
	}
	// Appending leaves what dst already held alone.
	frame := AppendNNCandidateSet([]byte("xy"), sets[1])
	if string(frame[:2]) != "xy" {
		t.Fatalf("AppendNNCandidateSet overwrote dst: %q", frame[:2])
	}
	if _, err := DecodeNNCandidateSet(frame[2:], nil); err != nil {
		t.Fatal(err)
	}
}

// TestNNCandidateSetGolden pins the bytes of one small frame. A failure
// here is a layout change: bump nnFrameVersion, update the table in
// docs/sharding.md, then update these bytes.
func TestNNCandidateSetGolden(t *testing.T) {
	set := core.NNCandidateSet{
		Tau: 2.5, Truncated: true, NodeAccesses: 300, Version: 5,
		Candidates: []core.NNCandidate{
			{ID: -3, Loc: [2]float64{1, -2}},
			{ID: 7, Loc: [2]float64{0.5, 1e4}},
			{ID: 207, Loc: [2]float64{math.Copysign(0, -1), 3}},
		},
	}
	const want = "01" + // format version
		"05" + // engine version
		"0000000000000440" + // tau 2.5
		"01" + // truncated
		"ac02" + // node accesses 300
		"03" + // count
		"05" + "0a" + "c801" + // ids: zigzag(-3), +10, +200
		"000000000000f03f" + "000000000000e03f" + "0000000000000080" + // xs 1, 0.5, -0
		"00000000000000c0" + "000000000088c340" + "0000000000000840" // ys -2, 1e4, 3
	if got := hex.EncodeToString(AppendNNCandidateSet(nil, set)); got != want {
		t.Fatalf("frame layout changed:\n got %s\nwant %s", got, want)
	}
}

// TestDecodeNNCandidateSetRefuses: each way a frame can be wrong is an
// ErrFrame, and a huge announced count allocates nothing but its error.
func TestDecodeNNCandidateSetRefuses(t *testing.T) {
	valid := AppendNNCandidateSet(nil, edgeSets()[2])
	header := func(count uint64) []byte {
		p := AppendNNCandidateSet(nil, core.NNCandidateSet{Tau: 1})
		return binary.AppendUvarint(p[:len(p)-1], count)
	}
	patch := func(at int, b byte) []byte {
		p := append([]byte(nil), valid...)
		p[at] = b
		return p
	}
	cases := map[string][]byte{
		"empty":                 nil,
		"unknown version":       patch(0, nnFrameVersion+1),
		"json":                  []byte(`{"version":1,"candidates":[]}`),
		"short header":          valid[:5],
		"cut inside ids":        valid[:len(valid)-33],
		"cut inside coords":     valid[:len(valid)-1],
		"trailing byte":         append(append([]byte(nil), valid...), 0),
		"truncated flag 2":      patch(1+10+8, 2),
		"count 2^40, no body":   header(1 << 40),
		"count 2^64-1":          header(math.MaxUint64),
		"count one too many":    append(header(2), make([]byte, 17+16)...),
		"padded varint":         append([]byte{nnFrameVersion, 0x80, 0x00}, valid[2:]...),
		"varint over 64 bits":   append([]byte{nnFrameVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, valid[2:]...),
		"negative tau":          AppendNNCandidateSet(nil, core.NNCandidateSet{Tau: -1}),
		"NaN tau":               AppendNNCandidateSet(nil, core.NNCandidateSet{Tau: math.NaN()}),
		"-Inf tau":              AppendNNCandidateSet(nil, core.NNCandidateSet{Tau: math.Inf(-1)}),
		"negative accesses":     AppendNNCandidateSet(nil, core.NNCandidateSet{NodeAccesses: -1}),
		"duplicate id":          AppendNNCandidateSet(nil, core.NNCandidateSet{Candidates: []core.NNCandidate{{ID: 4}, {ID: 4}}}),
		"descending ids":        AppendNNCandidateSet(nil, core.NNCandidateSet{Candidates: []core.NNCandidate{{ID: 4}, {ID: 3}}}),
		"id gap wraps int64":    AppendNNCandidateSet(nil, core.NNCandidateSet{Candidates: []core.NNCandidate{{ID: math.MaxInt64}, {ID: math.MinInt64}}}),
		"NaN coordinate":        AppendNNCandidateSet(nil, core.NNCandidateSet{Candidates: []core.NNCandidate{{ID: 1, Loc: [2]float64{math.NaN(), 0}}}}),
		"infinite y coordinate": AppendNNCandidateSet(nil, core.NNCandidateSet{Candidates: []core.NNCandidate{{ID: 1, Loc: [2]float64{0, math.Inf(1)}}}}),
	}
	for name, p := range cases {
		set, err := DecodeNNCandidateSet(p, nil)
		if !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want an ErrFrame", name, err)
		}
		if set.Candidates != nil || set.Version != 0 {
			t.Errorf("%s: a refused frame still returned %+v", name, set)
		}
	}
	huge := header(1 << 40)
	if allocs := testing.AllocsPerRun(20, func() { DecodeNNCandidateSet(huge, nil) }); allocs > 4 { //nolint:errcheck // counted, not used
		t.Errorf("refusing a 2^40 count took %v allocations, want only the error's", allocs)
	}
}

// FuzzDecodeNNCandidateSet: arbitrary bytes decode to a value or an
// ErrFrame — no panic, no allocation out of proportion to the input —
// and a value that was accepted re-encodes to the bytes it came from.
func FuzzDecodeNNCandidateSet(f *testing.F) {
	for _, set := range edgeSets() {
		f.Add(AppendNNCandidateSet(nil, set))
	}
	f.Add([]byte(`{"version":1,"candidates":[]}`))
	f.Fuzz(func(t *testing.T, p []byte) {
		set, err := DecodeNNCandidateSet(p, nil)
		if err != nil {
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(set.Candidates)*nnCandidateMin > len(p) {
			t.Fatalf("%d-byte input produced %d candidates", len(p), len(set.Candidates))
		}
		if again := AppendNNCandidateSet(nil, set); string(again) != string(p) {
			t.Fatalf("accepted frame is not canonical:\n in  %x\n out %x", p, again)
		}
	})
}

// nnRoSet is a candidate set the size nn_ro ships per query: 1 340
// points of the benchmark's dataset, ids spread over its 62 000.
func nnRoSet() core.NNCandidateSet {
	pts := dataset.GeneratePoints(dataset.CaliforniaConfig())
	set := core.NNCandidateSet{Tau: 812.25, NodeAccesses: 57, Version: 3}
	for i := 0; len(set.Candidates) < 1340; i += len(pts) / 1340 {
		set.Candidates = append(set.Candidates, core.NNCandidate{ID: uncertain.ID(i), Loc: [2]float64{pts[i].X, pts[i].Y}})
	}
	return set
}

var benchSink core.NNCandidateSet

// BenchmarkNNCandidateFrame is one shard reply's codec cost on both
// sides of the hop: encode into a reused buffer, decode into a fresh
// candidate list.
func BenchmarkNNCandidateFrame(b *testing.B) {
	set := nnRoSet()
	buf := AppendNNCandidateSet(nil, set)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for b.Loop() {
		buf = AppendNNCandidateSet(buf[:0], set)
		got, err := DecodeNNCandidateSet(buf, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = got
	}
}
