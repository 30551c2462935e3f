// Package wire holds the binary frames the fleet's processes exchange
// with each other. Today that is one frame: the reply of a shard's
// POST /v1/nn/candidates, the only bulk body that crosses the router ↔
// shard hop on an NN query. Everything a client can see stays JSON and
// lives in internal/serve.
//
// Threat model of the decoders: the bytes come off a network socket
// and are untrusted — a half-upgraded shard, a truncated reply, a
// hostile process on the shard's port. A decoder therefore never
// panics, never allocates more than a constant multiple of the bytes
// it was handed (an announced element count is checked against the
// bytes that remain before anything is allocated), refuses anything
// after the last field, and accepts exactly one encoding per value:
// every accepted input re-encodes to the identical bytes, so two
// frames are equal iff the values they carry are. Every refusal is an
// error that wraps ErrFrame. Capping how many bytes are read off the
// socket in the first place is the reader's job (shard.Client).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/uncertain"
)

// ErrFrame is wrapped by every decode failure: the bytes are not a
// frame this binary understands. It is deterministic for given bytes,
// so a caller must not retry on it.
var ErrFrame = errors.New("wire: malformed frame")

// NNFrameType is the Content-Type of an NN candidate-set frame.
const NNFrameType = "application/x-ildq-nn-frame"

// nnFrameVersion is the frame's first byte. Any change to the layout
// below bumps it (and the golden test's bytes); a decoder refuses
// every version but its own, so a router and a shard built from
// different layouts fail loudly instead of misreading each other.
const nnFrameVersion = 1

// Frame layout (docs/sharding.md has the table with the reasons):
//
//	byte     format version
//	uvarint  engine version
//	8 bytes  tau, little-endian Float64bits (+Inf: the shard holds no point)
//	byte     truncated, 0 or 1
//	uvarint  node accesses
//	uvarint  n, the candidate count
//	n × varint   ids: the first zigzag, each next the (unsigned, > 0) gap to the one before
//	n × 8 bytes  xs, little-endian Float64bits
//	n × 8 bytes  ys
const (
	nnHeaderMax    = 1 + binary.MaxVarintLen64 + 8 + 1 + 2*binary.MaxVarintLen64
	nnCandidateMin = 1 + 16
	nnCandidateMax = binary.MaxVarintLen64 + 16
)

// MaxNNCandidateSetSize is the largest frame a set of at most n
// candidates encodes to — the cap a reader applies before decoding.
func MaxNNCandidateSetSize(n int) int { return nnHeaderMax + n*nnCandidateMax }

// AppendNNCandidateSet appends set's frame to dst. The set must be
// what collectNN produces: candidates in strictly ascending id order,
// finite coordinates, tau in [0, +Inf]. A set that is not encodes to a
// frame the decoder refuses.
func AppendNNCandidateSet(dst []byte, set core.NNCandidateSet) []byte {
	dst = append(dst, nnFrameVersion)
	dst = binary.AppendUvarint(dst, set.Version)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(set.Tau))
	if set.Truncated {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(set.NodeAccesses))
	dst = binary.AppendUvarint(dst, uint64(len(set.Candidates)))
	for i, c := range set.Candidates {
		if i == 0 {
			dst = binary.AppendVarint(dst, int64(c.ID))
		} else {
			dst = binary.AppendUvarint(dst, uint64(c.ID-set.Candidates[i-1].ID))
		}
	}
	for axis := range 2 {
		for _, c := range set.Candidates {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Loc[axis]))
		}
	}
	return dst
}

// DecodeNNCandidateSet decodes one frame. p must hold exactly the
// frame; the returned set shares no memory with it. Its candidates are
// decoded into buf's array when that holds them (a caller that
// decodes frame after frame reuses one array), else into a new one.
func DecodeNNCandidateSet(p []byte, buf []core.NNCandidate) (core.NNCandidateSet, error) {
	d := decoder{p: p}
	if v := d.byte(); d.err == nil && v != nnFrameVersion {
		return core.NNCandidateSet{}, fmt.Errorf("%w: nn candidate frame version %d, this binary speaks %d", ErrFrame, v, nnFrameVersion)
	}
	var set core.NNCandidateSet
	set.Version = d.uvarint()
	set.Tau = math.Float64frombits(d.uint64())
	switch d.byte() {
	case 0:
	case 1:
		set.Truncated = true
	default:
		d.fail("truncated flag is neither 0 nor 1")
	}
	accesses := d.uvarint()
	if accesses > math.MaxInt64 {
		d.fail("node accesses overflow int64")
	}
	set.NodeAccesses = int64(accesses)
	n := d.uvarint()
	if d.err == nil && !(set.Tau >= 0) {
		d.fail("tau is negative or NaN")
	}
	// The count is checked against what is left before it sizes
	// anything: a frame cannot make the decoder allocate more than
	// 24/17 of its own length.
	if d.err == nil && n > uint64(len(d.p)/nnCandidateMin) {
		d.fail("candidate count exceeds the bytes that follow")
	}
	if d.err != nil {
		return core.NNCandidateSet{}, d.err
	}
	if buf != nil && uint64(cap(buf)) >= n {
		set.Candidates = buf[:n]
	} else {
		set.Candidates = make([]core.NNCandidate, n)
	}
	for i := range set.Candidates {
		if i == 0 {
			set.Candidates[i].ID = uncertain.ID(d.varint())
			continue
		}
		// A zero gap is a duplicate id; a gap past MaxInt64 wraps to an
		// id below the previous one. Both fail the same comparison.
		prev := set.Candidates[i-1].ID
		id := prev + uncertain.ID(d.uvarint())
		if id <= prev {
			d.fail("candidate ids are not strictly ascending")
		}
		set.Candidates[i].ID = id
	}
	// What is left must be exactly the two coordinate arrays: that is
	// the truncation check and the trailing-bytes check in one.
	if d.err == nil && uint64(len(d.p)) != 16*n {
		d.fail("the bytes after the ids are not 16 per candidate")
	}
	if d.err != nil {
		return core.NNCandidateSet{}, d.err
	}
	xs, ys := d.p[:8*n], d.p[8*n:]
	for i := range set.Candidates {
		x := math.Float64frombits(binary.LittleEndian.Uint64(xs[8*i:]))
		y := math.Float64frombits(binary.LittleEndian.Uint64(ys[8*i:]))
		// v-v is 0 for every finite v and NaN for ±Inf and NaN.
		if x-x != 0 || y-y != 0 {
			return core.NNCandidateSet{}, fmt.Errorf("%w: candidate coordinate is not finite", ErrFrame)
		}
		set.Candidates[i].Loc = [2]float64{x, y}
	}
	return set, nil
}

// decoder consumes p field by field. The first failure sticks: every
// later read returns zero, so a decode function checks err once per
// decision instead of once per field.
type decoder struct {
	p   []byte
	err error
}

func (d *decoder) fail(why string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrFrame, why)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || len(d.p) < 1 {
		d.fail("frame ends inside a field")
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

func (d *decoder) uint64() uint64 {
	if d.err != nil || len(d.p) < 8 {
		d.fail("frame ends inside a field")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p)
	d.p = d.p[8:]
	return v
}

// uvarint reads one minimally encoded uvarint: binary.Uvarint also
// accepts padded forms (0x80 0x00 for 0), which would give one value
// two frames.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p)
	switch {
	case n == 0:
		d.fail("frame ends inside a field")
		return 0
	case n < 0:
		d.fail("varint overflows 64 bits")
		return 0
	case n > 1 && d.p[n-1] == 0:
		d.fail("varint is not minimally encoded")
		return 0
	}
	d.p = d.p[n:]
	return v
}

// varint reads one zigzag varint, as binary.AppendVarint writes it.
func (d *decoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}
