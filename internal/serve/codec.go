package serve

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/uncertain"
)

// This file is the codec of every body a query or a write crosses the
// fleet in: an append encoder and a scanning decoder that replace
// encoding/json's reflection on the hot hops without changing a byte of
// any body. On the read path they carry the query request (client →
// router → shard, and inside the NN candidate request) and the two
// bodies with a match list, EvaluateResponse and RegisterResponse
// (shard → router → client), whose match elements the router relays as
// the shards' own bytes (relayedMatches); on the write
// path the /v1/updates batch (client → router → shard) and its
// UpdatesResponse, and the SSE delta frame, which a shard writes
// straight from monitor.Delta and the router relays as the shard's own
// bytes with its shard tag spliced in (AppendRelayedDelta).
//
// The encoder writes exactly what encoding/json writes for the same
// struct — field order, omitempty, encoding/json's float and string
// rules, the trailing newline where json.NewEncoder(w).Encode writes
// one. The decoders of replies and frames accept a subset of what
// json.Unmarshal accepts and yield the same struct for it; the decoders
// of a client's request bodies accept what json.Decoder with
// DisallowUnknownFields accepts, with two documented exceptions
// (DecodeUpdatesRequest). TestCodecMatchesEncodingJSON and the fuzz
// targets hold them to that, so there is one wire format and no second
// schema to version.

// encoder appends JSON to b. The one value it can refuse is a float64
// that is not finite, as encoding/json does; err keeps the first.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) raw(s string) { e.b = append(e.b, s...) }

func (e *encoder) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

func (e *encoder) uint(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }

// float is encoding/json's float64 rule: the shortest digits that
// round-trip, 'f' form except below 1e-6 and from 1e21, where the 'e'
// form has its two-digit negative exponent trimmed (e-09 → e-9).
func (e *encoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

const hexDigits = "0123456789abcdef"

// str is encoding/json's string rule with HTML escaping on: the quote,
// the backslash, control characters, <, > and & are escaped, U+2028 and
// U+2029 too, and a byte that is not UTF-8 becomes \ufffd.
func (e *encoder) str(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	e.b = append(append(b, s[start:]...), '"')
}

// engineMatches writes the engine's match list — a list even when the
// slice is nil — so a shard, and the router for its NN answer, encode
// an answer without copying it first. Each element is in the one layout
// the reply scanner takes (shardMatches).
func (e *encoder) engineMatches(ms []core.Match) {
	e.raw("[")
	for i := range ms {
		if i > 0 {
			e.raw(",")
		}
		e.raw(`{"id":`)
		e.int(int64(ms[i].ID))
		e.raw(`,"p":`)
		e.float(ms[i].P)
		e.raw("}")
	}
	e.raw("]")
}

// evaluateHead is an EvaluateResponse up to its match list,
// evaluateTail the rest of it.
func (e *encoder) evaluateHead(r *EvaluateResponse) {
	e.raw(`{"request_id":`)
	e.str(r.RequestID)
	e.raw(`,"kind":`)
	e.str(r.Kind)
	e.raw(`,"version":`)
	e.uint(r.Version)
	e.raw(`,"matches":`)
}

func (e *encoder) evaluateTail(r *EvaluateResponse) {
	e.raw(`,"cost":`)
	e.cost(&r.Cost)
	if len(r.Trace) > 0 {
		e.raw(`,"trace":[`)
		for i := range r.Trace {
			if i > 0 {
				e.raw(",")
			}
			e.span(&r.Trace[i])
		}
		e.raw("]")
	}
	e.partial(r.Partial, r.MissingShards)
	e.raw("}\n")
}

func (e *encoder) cost(c *CostJSON) {
	e.raw(`{"candidates":`)
	e.int(int64(c.Candidates))
	e.raw(`,"refined":`)
	e.int(int64(c.Refined))
	e.raw(`,"samples_used":`)
	e.int(c.SamplesUsed)
	e.raw(`,"early_stopped":`)
	e.int(int64(c.EarlyStopped))
	e.raw(`,"node_accesses":`)
	e.int(c.NodeAccesses)
	e.raw(`,"duration_ms":`)
	e.float(c.DurationMS)
	e.raw("}")
}

func (e *encoder) strs(ss []string) {
	e.raw("[")
	for i, s := range ss {
		if i > 0 {
			e.raw(",")
		}
		e.str(s)
	}
	e.raw("]")
}

// partial is the fail-open tail of a router-merged reply.
func (e *encoder) partial(partial bool, missing []string) {
	if partial {
		e.raw(`,"partial":true`)
	}
	if len(missing) > 0 {
		e.raw(`,"missing_shards":`)
		e.strs(missing)
	}
}

func (e *encoder) span(sp *SpanJSON) {
	e.raw(`{"stage":`)
	e.str(sp.Stage)
	e.raw(`,"start_ms":`)
	e.float(sp.StartMS)
	e.raw(`,"duration_ms":`)
	e.float(sp.DurationMS)
	if sp.NodeAccesses != 0 {
		e.raw(`,"node_accesses":`)
		e.int(sp.NodeAccesses)
	}
	if sp.Samples != 0 {
		e.raw(`,"samples":`)
		e.int(sp.Samples)
	}
	if sp.Items != 0 {
		e.raw(`,"items":`)
		e.int(int64(sp.Items))
	}
	if sp.Note != "" {
		e.raw(`,"note":`)
		e.str(sp.Note)
	}
	e.raw("}")
}

// done returns what was appended; after a refused value, dst as it was
// handed in is gone, so the caller gets the error and no bytes.
func (e *encoder) done() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

// AppendEngineEvaluateResponse appends r as the body of POST
// /v1/evaluate with ms, the engine's own slice, as its match list;
// r.Matches is not read. A shard answers with it, and so does the
// router for an NN query, whose answer it refines itself.
func AppendEngineEvaluateResponse(dst []byte, r *EvaluateResponse, ms []core.Match) ([]byte, error) {
	e := encoder{b: dst}
	e.evaluateHead(r)
	e.engineMatches(ms)
	e.evaluateTail(r)
	return e.done()
}

// AppendRelayedEvaluateResponse appends the router's answer to POST
// /v1/evaluate: r, except that its match list is not r.Matches but the
// replies' lists relayed (relayedMatches).
func AppendRelayedEvaluateResponse(dst []byte, r *EvaluateResponse, replies []EvaluateReply) ([]byte, error) {
	e := encoder{b: dst}
	e.evaluateHead(r)
	e.relayedMatches(len(replies), func(i int) relayCursor { return relayCursor{replies[i].Matches, replies[i].elems} })
	e.evaluateTail(r)
	return e.done()
}

// relayCursor is the part of one reply's match list the merge has not
// passed yet: the decoded matches, and their elements' bytes.
type relayCursor struct {
	ms    []MatchJSON
	elems []byte
}

// relayedMatches writes the union of n shard replies' match lists,
// list(i) the i-th, merged in the canonical order each arrives in (the
// reply scanner checked it) with one copy kept of matches that compare
// equal — a straddling object's replicas, which every replica answers
// with a bit-identical probability — and every element copied from the
// reply that supplied it rather than written again. A lone non-empty
// list is one copy. The list is always a list: no reply, or only empty
// or null ones, is [].
func (e *encoder) relayedMatches(n int, list func(i int) relayCursor) {
	var fixed [4]relayCursor // a query touches one shard, rarely more than two
	lists := fixed[:0]
	for i := range n {
		if c := list(i); len(c.ms) > 0 {
			lists = append(lists, c)
		}
	}
	e.raw("[")
	if len(lists) == 1 {
		e.b = append(e.b, lists[0].elems...)
		lists = nil
	}
	var last MatchJSON
	for kept := 0; len(lists) > 0; {
		lo := 0
		for l := 1; l < len(lists); l++ {
			if CompareMatchJSON(lists[l].ms[0], lists[lo].ms[0]) < 0 {
				lo = l
			}
		}
		c := &lists[lo]
		// An element ends at its one '}': the layout the scanner accepted
		// has no other.
		end := bytes.IndexByte(c.elems, '}') + 1
		if m := c.ms[0]; kept == 0 || CompareMatchJSON(last, m) != 0 {
			if kept > 0 {
				e.raw(",")
			}
			e.b = append(e.b, c.elems[:end]...)
			last = m
			kept++
		}
		if c.ms = c.ms[1:]; len(c.ms) == 0 {
			lists = slices.Delete(lists, lo, lo+1)
		} else {
			c.elems = c.elems[end+1:] // and the comma
		}
	}
	e.raw("]")
}

// registerHead is a RegisterResponse up to its snapshot; what follows
// the snapshot is "}\n".
func (e *encoder) registerHead(r *RegisterResponse) {
	e.raw(`{"id":`)
	e.int(r.ID)
	e.raw(`,"kind":`)
	e.str(r.Kind)
	e.raw(`,"snapshot":`)
}

// appendEngineRegisterResponse appends r as a shard's body of POST
// /v1/queries with ms, the standing query's snapshot as the engine
// holds it, as its snapshot; r.Snapshot is not read.
func appendEngineRegisterResponse(dst []byte, r *RegisterResponse, ms []core.Match) ([]byte, error) {
	e := encoder{b: dst}
	e.registerHead(r)
	e.engineMatches(ms)
	e.raw("}\n")
	return e.done()
}

// AppendRelayedRegisterResponse appends the router's answer to POST
// /v1/queries: r, except that its snapshot is not r.Snapshot but the
// replies' snapshots relayed as an evaluate answer's match lists are
// (relayedMatches).
func AppendRelayedRegisterResponse(dst []byte, r *RegisterResponse, replies []RegisterReply) ([]byte, error) {
	e := encoder{b: dst}
	e.registerHead(r)
	e.relayedMatches(len(replies), func(i int) relayCursor { return relayCursor{replies[i].Snapshot, replies[i].elems} })
	e.raw("}\n")
	return e.done()
}

// request writes a RequestJSON. Every field before the issuer is
// omitempty and the issuer never is, so the comma goes after each of
// those.
func (e *encoder) request(rj *RequestJSON) {
	e.raw("{")
	if rj.Kind != "" {
		e.raw(`"kind":`)
		e.str(rj.Kind)
		e.raw(",")
	}
	if rj.Target != "" {
		e.raw(`"target":`)
		e.str(rj.Target)
		e.raw(",")
	}
	e.raw(`"issuer":{"region":`)
	if rj.Issuer.Region == nil {
		e.raw("null")
	} else {
		e.floats(rj.Issuer.Region)
	}
	if rj.Issuer.PDF != "" {
		e.raw(`,"pdf":`)
		e.str(rj.Issuer.PDF)
	}
	e.optFloat(`,"sigma_x":`, rj.Issuer.SigmaX)
	e.optFloat(`,"sigma_y":`, rj.Issuer.SigmaY)
	e.raw("}")
	e.optFloat(`,"w":`, rj.W)
	e.optFloat(`,"h":`, rj.H)
	e.optFloat(`,"threshold":`, rj.Threshold)
	e.optInt(`,"k":`, int64(rj.K))
	e.optInt(`,"nn_samples":`, int64(rj.NNSamples))
	e.optInt(`,"seed":`, rj.Seed)
	if rj.Trace {
		e.raw(`,"trace":true`)
	}
	e.raw("}")
}

// optFloat and optInt write an omitempty number field, key included.
func (e *encoder) optFloat(key string, f float64) {
	if f != 0 {
		e.raw(key)
		e.float(f)
	}
}

func (e *encoder) optInt(key string, v int64) {
	if v != 0 {
		e.raw(key)
		e.int(v)
	}
}

// AppendRequest appends rj as the body of POST /v1/evaluate and POST
// /v1/queries: byte for byte what json.Marshal(rj) writes, with no
// trailing newline.
func AppendRequest(dst []byte, rj *RequestJSON) ([]byte, error) {
	e := encoder{b: dst}
	e.request(rj)
	return e.done()
}

// AppendNNCandidatesRequest appends r as the body of POST
// /v1/nn/candidates: byte for byte what json.Marshal(r) writes.
func AppendNNCandidatesRequest(dst []byte, r *NNCandidatesRequest) ([]byte, error) {
	e := encoder{b: dst}
	e.raw(`{"request":`)
	e.request(&r.Request)
	e.optFloat(`,"tau_bound":`, r.TauBound)
	e.optInt(`,"limit":`, int64(r.Limit))
	e.raw("}")
	return e.done()
}

func (e *encoder) floats(fs []float64) {
	e.raw("[")
	for i, f := range fs {
		if i > 0 {
			e.raw(",")
		}
		e.float(f)
	}
	e.raw("]")
}

func (e *encoder) update(u *UpdateJSON) {
	e.raw(`{"op":`)
	e.str(u.Op)
	e.raw(`,"id":`)
	e.int(u.ID)
	e.optFloat(`,"x":`, u.X)
	e.optFloat(`,"y":`, u.Y)
	if len(u.Region) > 0 {
		e.raw(`,"region":`)
		e.floats(u.Region)
	}
	if u.PDF != "" {
		e.raw(`,"pdf":`)
		e.str(u.PDF)
	}
	e.optFloat(`,"sigma_x":`, u.SigmaX)
	e.optFloat(`,"sigma_y":`, u.SigmaY)
	e.raw("}")
}

// AppendUpdatesRequest appends r as the body of POST /v1/updates: byte
// for byte what json.Marshal(r) writes, with no trailing newline.
func AppendUpdatesRequest(dst []byte, r *UpdatesRequest) ([]byte, error) {
	e := encoder{b: dst}
	e.raw(`{"updates":`)
	if r.Updates == nil {
		e.raw("null")
	} else {
		e.raw("[")
		for i := range r.Updates {
			if i > 0 {
				e.raw(",")
			}
			e.update(&r.Updates[i])
		}
		e.raw("]")
	}
	e.raw("}")
	return e.done()
}

// AppendUpdatesResponse appends r as the reply of POST /v1/updates,
// versions in the sorted key order encoding/json writes a map in.
func AppendUpdatesResponse(dst []byte, r *UpdatesResponse) ([]byte, error) {
	e := encoder{b: dst}
	e.raw(`{"seq":`)
	e.uint(r.Seq)
	e.raw(`,"applied":`)
	e.int(int64(r.Applied))
	e.raw(`,"missing":`)
	e.int(int64(r.Missing))
	e.raw(`,"version":`)
	e.uint(r.Version)
	e.raw(`,"reevaluated":`)
	e.int(int64(r.Reevaluated))
	e.raw(`,"skipped":`)
	e.int(int64(r.Skipped))
	e.raw(`,"entered":`)
	e.int(int64(r.Entered))
	e.raw(`,"left":`)
	e.int(int64(r.Left))
	e.raw(`,"changed":`)
	e.int(int64(r.Changed))
	if len(r.Errors) > 0 {
		e.raw(`,"errors":`)
		e.strs(r.Errors)
	}
	if len(r.Versions) > 0 {
		e.raw(`,"versions":{`)
		for i, shard := range slices.Sorted(maps.Keys(r.Versions)) {
			if i > 0 {
				e.raw(",")
			}
			e.str(shard)
			e.raw(":")
			e.uint(r.Versions[shard])
		}
		e.raw("}")
	}
	e.partial(r.Partial, r.MissingShards)
	e.raw("}\n")
	return e.done()
}

// AppendDelta appends d as one frame of a standing query's delta
// stream: byte for byte what json.Marshal writes for its DeltaJSON
// form, with no trailing newline. Seq and version lead, as in
// DeltaJSON, which is what lets the router splice its shard tag in
// behind them (AppendRelayedDelta).
func AppendDelta(dst []byte, d *monitor.Delta) ([]byte, error) {
	e := encoder{b: dst}
	e.raw(`{"seq":`)
	e.uint(d.Seq)
	e.raw(`,"version":`)
	e.uint(d.Version)
	if len(d.Entered) > 0 {
		e.raw(`,"entered":`)
		e.engineMatches(d.Entered)
	}
	if len(d.Updated) > 0 {
		e.raw(`,"updated":`)
		e.engineMatches(d.Updated)
	}
	if len(d.Left) > 0 {
		e.raw(`,"left":[`)
		for i, id := range d.Left {
			if i > 0 {
				e.raw(",")
			}
			e.int(int64(id))
		}
		e.raw("]")
	}
	if d.Err != nil {
		if msg := d.Err.Error(); msg != "" {
			e.raw(`,"error":`)
			e.str(msg)
		}
	}
	e.raw(`,"coalesced":`)
	e.int(int64(d.Coalesced))
	e.raw(`,"cost":`)
	cost := ToCostJSON(d.Cost)
	e.cost(&cost)
	e.raw("}")
	return e.done()
}

// AppendRelayedDelta appends a shard's delta frame as the router
// relays it: the frame's own bytes, with `,"shard":<shard>` spliced in
// where the version value ends. The frame is checked first by the
// scanning decoder; a frame it refuses, one without a version and one
// that already carries a shard tag are refused with ErrBody. For a
// frame a shard's AppendDelta wrote — seq, then version, then the rest
// — the result is byte for byte what json.Marshal writes for the
// frame's DeltaJSON with Shard set, since that is where encoding/json
// puts the shard field. A frame written some other way keeps its own
// bytes too: its unknown keys, key case, whitespace and number
// spellings (0.50) reach the subscriber as the shard wrote them, where
// a decode and re-encode would drop and normalise them.
func AppendRelayedDelta(dst, frame []byte, shard string) ([]byte, error) {
	s := &scanner{p: frame}
	_, versionEnd, tagged := s.delta()
	if err := s.end(); err != nil {
		return nil, err
	}
	if versionEnd < 0 || tagged {
		return nil, fmt.Errorf("%w: a shard's delta frame needs a version and no shard tag", ErrBody)
	}
	e := encoder{b: append(dst, frame[:versionEnd]...)}
	e.raw(`,"shard":`)
	e.str(shard)
	return append(e.b, frame[versionEnd:]...), nil
}

// ErrBody is wrapped by every refusal of the scanning decoder: the
// bytes are not a body of the kind asked for that this binary trusts.
// It is deterministic for given bytes, so a caller must not retry on
// it.
var ErrBody = errors.New("serve: malformed JSON body")

// maxSkipDepth bounds the nesting of a value under an unknown key.
const maxSkipDepth = 32

// scanner reads one JSON body left to right. It is an untrusted-input
// decoder: every index is checked, the first failure is kept in err and
// moves i to the end so that every loop stops, and nothing is allocated
// in proportion to anything but the bytes actually present.
//
// As a decoder of replies and frames it accepts less than
// encoding/json: only an object at the top, null only in place of a
// list, no key twice in one object (json.Unmarshal merges the two
// values), unknown values nested at most maxSkipDepth deep, and an
// answer's match list only in the engine's canonical order and in the
// layout a shard writes (shardMatches). Elsewhere it accepts any key
// order, whitespace, keys spelled in another case (as json.Unmarshal
// matches them) and unknown keys, whose values are checked to be JSON
// and dropped — unless strict, when an unknown key is refused as
// DisallowUnknownFields refuses it.
type scanner struct {
	p      []byte
	i      int
	depth  int // of the unknown value being skipped
	strict bool
	err    error
}

func (s *scanner) fail(why string) {
	s.failWith(fmt.Errorf("%w: %s at byte %d", ErrBody, why, s.i))
}

func (s *scanner) failWith(err error) {
	if s.err == nil {
		s.err = err
	}
	s.i = len(s.p)
}

// unknownFieldError is json.Decoder's refusal of an unknown key under
// DisallowUnknownFields, word for word, so that a 400 names the field
// as it always did. It is an ErrBody like every other refusal.
type unknownFieldError string

func (e unknownFieldError) Error() string { return fmt.Sprintf("json: unknown field %q", string(e)) }

func (unknownFieldError) Is(target error) bool { return target == ErrBody }

// peek skips whitespace and returns the byte after it, 0 at the end.
func (s *scanner) peek() byte {
	for s.i < len(s.p) {
		switch c := s.p[s.i]; c {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return c
		}
	}
	return 0
}

func (s *scanner) expect(c byte) bool {
	if s.peek() != c {
		s.fail("want '" + string(c) + "'")
		return false
	}
	s.i++
	return true
}

// word consumes the literal w, whose first byte the caller has peeked.
func (s *scanner) word(w string) {
	if !bytes.HasPrefix(s.p[s.i:], []byte(w)) {
		s.fail("want " + w)
		return
	}
	s.i += len(w)
}

// fieldOf returns the index of the name key matches — exactly, or
// under Unicode case folding, which is how encoding/json matches a key
// to a struct field — and -1 for a key that matches none.
func fieldOf(names []string, key []byte) int {
	for f, name := range names {
		if string(key) == name {
			return f
		}
	}
	for f, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return f
		}
	}
	return -1
}

// object walks one object, calling member with each key (which aliases
// the body); member consumes the value.
func (s *scanner) object(member func(key []byte)) {
	if !s.expect('{') {
		return
	}
	if s.peek() == '}' {
		s.i++
		return
	}
	for {
		key := s.str()
		if !s.expect(':') {
			return
		}
		member(key)
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return
		default:
			s.fail("want ',' or '}'")
			return
		}
	}
}

// members walks an object of a struct's fields: for each key that
// matches one of names it calls field with the name's index, and field
// consumes the value; the value of any other key is skipped.
func (s *scanner) members(names []string, field func(f int)) {
	var seen uint
	s.object(func(key []byte) {
		switch f := fieldOf(names, key); {
		case f < 0 && s.strict:
			s.failWith(unknownFieldError(key))
		case f < 0:
			s.skip()
		case seen&(1<<f) != 0:
			s.fail("duplicate key " + names[f])
		default:
			seen |= 1 << f
			field(f)
		}
	})
}

// elements walks one array, calling elem at each element.
func (s *scanner) elements(elem func()) {
	if !s.expect('[') {
		return
	}
	if s.peek() == ']' {
		s.i++
		return
	}
	for {
		elem()
		switch s.peek() {
		case ',':
			s.i++
		case ']':
			s.i++
			return
		default:
			s.fail("want ',' or ']'")
			return
		}
	}
}

// null consumes a null literal if one is next.
func (s *scanner) null() bool {
	if s.peek() != 'n' {
		return false
	}
	s.word("null")
	return true
}

// list scans an array into a slice as json.Unmarshal fills one: nil
// for null, empty for [].
func list[T any](s *scanner, sizeHint int, elem func() T) []T {
	if s.null() {
		return nil
	}
	out := make([]T, 0, sizeHint)
	s.elements(func() { out = append(out, elem()) })
	return out
}

// skip checks that the next value is JSON and drops it.
func (s *scanner) skip() {
	if s.depth++; s.depth > maxSkipDepth {
		s.fail("unknown value nested too deep")
		return
	}
	switch s.peek() {
	case '{':
		s.object(func([]byte) { s.skip() })
	case '[':
		s.elements(s.skip)
	case '"':
		s.str()
	case 't':
		s.word("true")
	case 'f':
		s.word("false")
	case 'n':
		s.word("null")
	default:
		s.number()
	}
	s.depth--
}

// str scans a string literal and returns its value as json.Unmarshal
// would: escapes resolved, bytes that are not UTF-8 and unpaired
// surrogates replaced by U+FFFD. The result aliases the body when the
// literal is plain ASCII; callers that keep it copy it.
func (s *scanner) str() []byte {
	if !s.expect('"') {
		return nil
	}
	start := s.i
	for s.i < len(s.p) {
		switch c := s.p[s.i]; {
		case c == '"':
			s.i++
			return s.p[start : s.i-1]
		case c == '\\' || c >= utf8.RuneSelf:
			return s.strRewritten(start)
		case c < ' ':
			s.fail("control character in string")
			return nil
		}
		s.i++
	}
	s.fail("unterminated string")
	return nil
}

// strRewritten finishes str for a literal whose value is not its bytes.
func (s *scanner) strRewritten(start int) []byte {
	out := append([]byte(nil), s.p[start:s.i]...)
	for s.i < len(s.p) {
		switch c := s.p[s.i]; {
		case c == '"':
			s.i++
			return out
		case c < ' ':
			s.fail("control character in string")
			return nil
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(s.p[s.i:])
			out = utf8.AppendRune(out, r)
			s.i += size
		case c != '\\':
			out = append(out, c)
			s.i++
		case s.i+1 == len(s.p):
			s.fail("unterminated string")
			return nil
		case s.p[s.i+1] == 'u':
			r := s.u4(s.i)
			if r < 0 {
				s.fail(`bad \u escape`)
				return nil
			}
			s.i += 6
			if utf16.IsSurrogate(r) {
				// A pair is one rune; a half without its other half is
				// U+FFFD, and what follows it is scanned on its own.
				if r = utf16.DecodeRune(r, s.u4(s.i)); r != unicode.ReplacementChar {
					s.i += 6
				}
			}
			out = utf8.AppendRune(out, r)
		default:
			esc := strings.IndexByte(`"\/bfnrt`, s.p[s.i+1])
			if esc < 0 {
				s.fail("bad escape")
				return nil
			}
			out = append(out, "\"\\/\b\f\n\r\t"[esc])
			s.i += 2
		}
	}
	s.fail("unterminated string")
	return nil
}

// u4 reads the \uXXXX escape at p[at:], -1 if there is none.
func (s *scanner) u4(at int) rune {
	if at+6 > len(s.p) || s.p[at] != '\\' || s.p[at+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s.p[at+2 : at+6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// digitsEnd returns the end of the run of digits at p[i:].
func digitsEnd(p []byte, i int) int {
	for i < len(p) && p[i]-'0' <= 9 {
		i++
	}
	return i
}

// number scans a number literal by the JSON grammar; integer reports a
// literal with neither fraction nor exponent.
func (s *scanner) number() (lit []byte, integer bool) {
	s.peek()
	p, i := s.p, s.i
	if i < len(p) && p[i] == '-' {
		i++
	}
	end := digitsEnd(p, i)
	if end == i || p[i] == '0' && end > i+1 {
		s.fail("want a value")
		return nil, false
	}
	i, integer = end, true
	if i < len(p) && p[i] == '.' {
		if end = digitsEnd(p, i+1); end == i+1 {
			s.fail("want digits after '.'")
			return nil, false
		}
		i, integer = end, false
	}
	if i < len(p) && p[i]|0x20 == 'e' {
		if i++; i < len(p) && (p[i] == '+' || p[i] == '-') {
			i++
		}
		if end = digitsEnd(p, i); end == i {
			s.fail("want digits in the exponent")
			return nil, false
		}
		i, integer = end, false
	}
	lit, s.i = p[s.i:i], i
	return lit, integer
}

func (s *scanner) int(bits int) int64 {
	lit, integer := s.number()
	if s.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	if !integer || err != nil {
		s.fail("want an integer of " + strconv.Itoa(bits) + " bits")
	}
	return v
}

func (s *scanner) uint64() uint64 {
	lit, integer := s.number()
	if s.err != nil {
		return 0
	}
	v, err := strconv.ParseUint(string(lit), 10, 64)
	if !integer || err != nil {
		s.fail("want an unsigned integer")
	}
	return v
}

// float64 refuses a literal beyond float64's range (1e999), so every
// value it returns is finite.
func (s *scanner) float64() float64 {
	lit, _ := s.number()
	if s.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.fail("number out of range")
	}
	return v
}

func (s *scanner) bool() bool {
	if s.peek() == 't' {
		s.word("true")
		return true
	}
	s.word("false")
	return false
}

// text is str copied out of the body.
func (s *scanner) text() string { return string(s.str()) }

// CompareMatchJSON is core.CompareMatches, the engine's canonical
// result order, on the wire form of a match: the order a shard's list
// arrives in, the scanner checks and the router merges by.
func CompareMatchJSON(a, b MatchJSON) int {
	return core.CompareMatches(core.Match{ID: uncertain.ID(a.ID), P: a.P}, core.Match{ID: uncertain.ID(b.ID), P: b.P})
}

var matchKeys = []string{"id", "p"}

// match scans a delta frame's match in any layout json.Unmarshal reads.
func (s *scanner) match() (m MatchJSON) {
	s.members(matchKeys, func(f int) {
		if f == 0 {
			m.ID = s.int(64)
		} else {
			m.P = s.float64()
		}
	})
	return m
}

const outOfOrder = "match list is not in canonical order"

// shardMatches scans an answer's match list — an evaluate reply's or a
// registration snapshot — which the router relays as the shard's bytes.
// It returns the decoded list and the elements' bytes: the list between
// its brackets, aliasing the body. It holds the list to what the
// router's merge relies on: strictly ascending in the engine's
// canonical order (CompareMatchJSON), which also rules out a repeated
// id at one probability — an unsorted list merged as if sorted would
// become the fleet's answer silently — and each element in the one
// layout a shard's encoder writes (engineMatches),
// {"id":<int>,"p":<number>} with no whitespace and no other key. That
// is what lets the router find where an element ends and copy it
// instead of writing it again.
func (s *scanner) shardMatches() (ms []MatchJSON, elems []byte) {
	if s.null() || !s.expect('[') {
		return nil, nil
	}
	from := s.i
	// Every element opens a brace, so their count bounds the list by the
	// bytes actually present.
	ms = make([]MatchJSON, 0, bytes.Count(s.p[s.i:], []byte("{")))
	if s.i < len(s.p) && s.p[s.i] == ']' {
		s.i++
		return ms, s.p[from:from]
	}
	for {
		m := s.matchElement()
		if n := len(ms); n > 0 && CompareMatchJSON(ms[n-1], m) >= 0 {
			s.fail(outOfOrder)
		}
		if s.err != nil {
			return nil, nil
		}
		ms = append(ms, m)
		switch {
		case s.i < len(s.p) && s.p[s.i] == ',':
			s.i++
		case s.i < len(s.p) && s.p[s.i] == ']':
			s.i++
			return ms, s.p[from : s.i-1]
		default:
			s.fail("want ',' or ']' right after a match")
			return nil, nil
		}
	}
}

// matchElement scans one element of a shard's match list.
func (s *scanner) matchElement() (m MatchJSON) {
	s.layout(`{"id":`)
	m.ID = s.id()
	s.layout(`,"p":`)
	m.P = s.float64()
	s.layout("}")
	return m
}

// id is int(64) for a match element's id, where the layout leaves no
// room for a fraction or an exponent (the bytes after an id must be
// ,"p":): an optional minus, then at most 19 digits without a leading
// zero, in int64's range.
func (s *scanner) id() int64 {
	p, i := s.p, s.i
	neg := i < len(p) && p[i] == '-'
	if neg {
		i++
	}
	end := digitsEnd(p, i)
	if end == i || p[i] == '0' && end > i+1 || end-i > 19 {
		s.fail("want an integer of 64 bits")
		return 0
	}
	var u uint64 // 19 digits cannot overflow it
	for _, c := range p[i:end] {
		u = u*10 + uint64(c-'0')
	}
	if neg && u > 1<<63 || !neg && u > math.MaxInt64 {
		s.fail("want an integer of 64 bits")
		return 0
	}
	s.i = end
	if neg {
		return -int64(u) // 1<<63 wraps to math.MinInt64, as it should
	}
	return int64(u)
}

// layout consumes w, a match element's fixed bytes, which must come
// next; what follows w must not be whitespace either (float64 would
// skip it).
func (s *scanner) layout(w string) {
	if !bytes.HasPrefix(s.p[s.i:], []byte(w)) || s.i+len(w) < len(s.p) && isSpace(s.p[s.i+len(w)]) {
		s.fail(`a match is not {"id":<int>,"p":<number>}`)
		return
	}
	s.i += len(w)
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

var costKeys = []string{"candidates", "refined", "samples_used", "early_stopped", "node_accesses", "duration_ms"}

func (s *scanner) cost() (c CostJSON) {
	s.members(costKeys, func(f int) {
		switch f {
		case 0:
			c.Candidates = int(s.int(strconv.IntSize))
		case 1:
			c.Refined = int(s.int(strconv.IntSize))
		case 2:
			c.SamplesUsed = s.int(64)
		case 3:
			c.EarlyStopped = int(s.int(strconv.IntSize))
		case 4:
			c.NodeAccesses = s.int(64)
		case 5:
			c.DurationMS = s.float64()
		}
	})
	return c
}

var spanKeys = []string{"stage", "start_ms", "duration_ms", "node_accesses", "samples", "items", "note"}

func (s *scanner) span() (sp SpanJSON) {
	s.members(spanKeys, func(f int) {
		switch f {
		case 0:
			sp.Stage = s.text()
		case 1:
			sp.StartMS = s.float64()
		case 2:
			sp.DurationMS = s.float64()
		case 3:
			sp.NodeAccesses = s.int(64)
		case 4:
			sp.Samples = s.int(64)
		case 5:
			sp.Items = int(s.int(strconv.IntSize))
		case 6:
			sp.Note = s.text()
		}
	})
	return sp
}

// end refuses anything but whitespace after the body's one value.
func (s *scanner) end() error {
	if s.peek(); s.i < len(s.p) {
		s.fail("bytes after the body")
	}
	return s.err
}

var evaluateKeys = []string{"request_id", "kind", "version", "matches", "cost", "trace", "partial", "missing_shards"}

// EvaluateReply is a shard's reply to POST /v1/evaluate as the router
// relays it: the reply decoded, and the bytes of its match elements,
// which AppendRelayedEvaluateResponse copies into the router's answer.
// Those bytes alias the body it was decoded from, which must therefore
// outlive it; the rest shares no memory with the body.
type EvaluateReply struct {
	EvaluateResponse
	elems []byte // the match list between its brackets
}

// DecodeEvaluateReply decodes a shard's reply to POST /v1/evaluate: what
// json.Unmarshal reads into an EvaluateResponse, in any key order,
// whitespace and key case, unknown keys dropped, but for the refusals
// of the scanner — among them a match list out of canonical order or
// not in the layout a shard writes (shardMatches). Every refusal wraps
// ErrBody.
func DecodeEvaluateReply(body []byte) (EvaluateReply, error) {
	s := &scanner{p: body}
	var r EvaluateReply
	s.members(evaluateKeys, func(f int) {
		switch f {
		case 0:
			r.RequestID = s.text()
		case 1:
			r.Kind = s.known(kindNames)
		case 2:
			r.Version = s.uint64()
		case 3:
			r.Matches, r.elems = s.shardMatches()
		case 4:
			r.Cost = s.cost()
		case 5:
			r.Trace = list(s, 0, s.span)
		case 6:
			r.Partial = s.bool()
		case 7:
			r.MissingShards = list(s, 0, s.text)
		}
	})
	if err := s.end(); err != nil {
		return EvaluateReply{}, err
	}
	return r, nil
}

var registerKeys = []string{"id", "kind", "snapshot"}

// RegisterReply is a shard's reply to POST /v1/queries as the router
// relays it: the reply decoded, and the bytes of its snapshot's
// elements, which AppendRelayedRegisterResponse copies into the
// router's answer. They alias the body as an EvaluateReply's do.
type RegisterReply struct {
	RegisterResponse
	elems []byte // the snapshot between its brackets
}

// DecodeRegisterResponse decodes a shard's reply to POST /v1/queries
// under the rules of DecodeEvaluateReply: the snapshot is taken only
// in canonical order and in the layout a shard writes.
func DecodeRegisterResponse(body []byte) (RegisterReply, error) {
	s := &scanner{p: body}
	var r RegisterReply
	s.members(registerKeys, func(f int) {
		switch f {
		case 0:
			r.ID = s.int(64)
		case 1:
			r.Kind = s.known(kindNames)
		case 2:
			r.Snapshot, r.elems = s.shardMatches()
		}
	})
	if err := s.end(); err != nil {
		return RegisterReply{}, err
	}
	return r, nil
}

var updatesKeys = []string{"updates"}

// maxUpdatesHint caps the update list DecodeUpdatesRequest reserves
// before it decodes one: without it a body of braces alone would
// reserve a 96-byte UpdateJSON for each of its bytes.
const maxUpdatesHint = 512

// DecodeUpdatesRequest decodes the body of POST /v1/updates, a
// client's request: it accepts and refuses what json.Decoder with
// DisallowUnknownFields does and returns the same struct — null
// wherever encoding/json takes it, keys in another case, an unknown key
// refused with encoding/json's own words — with two exceptions, both
// refused: the same key twice in one object (encoding/json keeps the
// last), and bytes after the body's one value (json.Decoder leaves them
// unread). The result shares no memory with body. Every refusal wraps
// ErrBody.
func DecodeUpdatesRequest(body []byte) (UpdatesRequest, error) {
	s := &scanner{p: body, strict: true}
	var r UpdatesRequest
	if !s.null() {
		s.members(updatesKeys, func(int) {
			// Every update opens a brace, so their count bounds the list
			// by the bytes present; a client writes those bytes, so the
			// reservation is capped too and a longer list grows as it
			// decodes.
			hint := min(bytes.Count(s.p[s.i:], []byte("{")), maxUpdatesHint)
			r.Updates = list(s, hint, s.update)
		})
	}
	if err := s.end(); err != nil {
		return UpdatesRequest{}, err
	}
	return r, nil
}

var updateKeys = []string{"op", "id", "x", "y", "region", "pdf", "sigma_x", "sigma_y"}

var opNames = []string{"upsert_object", "upsert_point", "delete_object", "delete_point"}

// known is text for a value with a few common spellings — an update's
// op, a request's kind: those come back as the constants in names, so
// they cost no allocation.
func (s *scanner) known(names []string) string {
	b := s.str()
	for _, name := range names {
		if string(b) == name {
			return name
		}
	}
	return string(b)
}

// coords scans a list of coordinates, a null element read as 0 as
// json.Unmarshal reads it.
func (s *scanner) coords() []float64 {
	return list(s, 4, func() float64 {
		if s.null() {
			return 0
		}
		return s.float64()
	})
}

// update scans one update of a request: null, for the update or for
// any of its fields, leaves it at its zero value as encoding/json does.
func (s *scanner) update() (u UpdateJSON) {
	if s.null() {
		return u
	}
	s.members(updateKeys, func(f int) {
		if s.null() {
			return
		}
		switch f {
		case 0:
			u.Op = s.known(opNames)
		case 1:
			u.ID = s.int(64)
		case 2:
			u.X = s.float64()
		case 3:
			u.Y = s.float64()
		case 4:
			u.Region = s.coords()
		case 5:
			u.PDF = s.text()
		case 6:
			u.SigmaX = s.float64()
		case 7:
			u.SigmaY = s.float64()
		}
	})
	return u
}

var requestKeys = []string{"kind", "target", "issuer", "w", "h", "threshold", "k", "nn_samples", "seed", "trace"}

var kindNames = []string{"uncertain", "points", "nn"}

// request scans a query request: null, for the request or for any of
// its fields, leaves it at its zero value as encoding/json does.
func (s *scanner) request() (rj RequestJSON) {
	if s.null() {
		return rj
	}
	s.members(requestKeys, func(f int) {
		if s.null() {
			return
		}
		switch f {
		case 0:
			rj.Kind = s.known(kindNames)
		case 1:
			rj.Target = s.known(kindNames)
		case 2:
			rj.Issuer = s.issuer()
		case 3:
			rj.W = s.float64()
		case 4:
			rj.H = s.float64()
		case 5:
			rj.Threshold = s.float64()
		case 6:
			rj.K = int(s.int(strconv.IntSize))
		case 7:
			rj.NNSamples = int(s.int(strconv.IntSize))
		case 8:
			rj.Seed = s.int(64)
		case 9:
			rj.Trace = s.bool()
		}
	})
	return rj
}

var issuerKeys = []string{"region", "pdf", "sigma_x", "sigma_y"}

func (s *scanner) issuer() (is IssuerJSON) {
	s.members(issuerKeys, func(f int) {
		if s.null() {
			return
		}
		switch f {
		case 0:
			is.Region = s.coords()
		case 1:
			is.PDF = s.text()
		case 2:
			is.SigmaX = s.float64()
		case 3:
			is.SigmaY = s.float64()
		}
	})
	return is
}

// DecodeRequest decodes the body of POST /v1/evaluate and POST
// /v1/queries, a client's request, under the rules of
// DecodeUpdatesRequest: what json.Decoder with DisallowUnknownFields
// accepts, but a key twice in one object or bytes after the value. The
// result shares no memory with body.
func DecodeRequest(body []byte) (RequestJSON, error) {
	s := &scanner{p: body, strict: true}
	rj := s.request()
	if err := s.end(); err != nil {
		return RequestJSON{}, err
	}
	return rj, nil
}

var nnCandidatesKeys = []string{"request", "tau_bound", "limit"}

// DecodeNNCandidatesRequest decodes the body of POST /v1/nn/candidates
// under the rules of DecodeRequest.
func DecodeNNCandidatesRequest(body []byte) (NNCandidatesRequest, error) {
	s := &scanner{p: body, strict: true}
	var r NNCandidatesRequest
	if !s.null() {
		s.members(nnCandidatesKeys, func(f int) {
			if s.null() {
				return
			}
			switch f {
			case 0:
				r.Request = s.request()
			case 1:
				r.TauBound = s.float64()
			case 2:
				r.Limit = int(s.int(strconv.IntSize))
			}
		})
	}
	if err := s.end(); err != nil {
		return NNCandidatesRequest{}, err
	}
	return r, nil
}

var updatesResponseKeys = []string{"seq", "applied", "missing", "version", "reevaluated", "skipped", "entered", "left", "changed", "errors", "versions", "partial", "missing_shards"}

// DecodeUpdatesResponse decodes the reply of POST /v1/updates, under
// the rules of DecodeEvaluateReply; a versions key repeated is
// refused like any other.
func DecodeUpdatesResponse(body []byte) (UpdatesResponse, error) {
	s := &scanner{p: body}
	var r UpdatesResponse
	count := func(p *int) { *p = int(s.int(strconv.IntSize)) }
	s.members(updatesResponseKeys, func(f int) {
		switch f {
		case 0:
			r.Seq = s.uint64()
		case 1:
			count(&r.Applied)
		case 2:
			count(&r.Missing)
		case 3:
			r.Version = s.uint64()
		case 4:
			count(&r.Reevaluated)
		case 5:
			count(&r.Skipped)
		case 6:
			count(&r.Entered)
		case 7:
			count(&r.Left)
		case 8:
			count(&r.Changed)
		case 9:
			r.Errors = list(s, 0, s.text)
		case 10:
			r.Versions = s.versions()
		case 11:
			r.Partial = s.bool()
		case 12:
			r.MissingShards = list(s, 0, s.text)
		}
	})
	if err := s.end(); err != nil {
		return UpdatesResponse{}, err
	}
	return r, nil
}

// versions scans the shard → version map: nil for null, as
// json.Unmarshal fills a map.
func (s *scanner) versions() map[string]uint64 {
	if s.null() {
		return nil
	}
	m := map[string]uint64{}
	s.object(func(key []byte) {
		if _, dup := m[string(key)]; dup {
			s.fail("duplicate key " + string(key))
			return
		}
		m[string(key)] = s.uint64()
	})
	return m
}

var deltaKeys = []string{"seq", "version", "shard", "entered", "updated", "left", "error", "coalesced", "cost"}

// delta scans one delta frame. versionEnd is the offset just past the
// version value, -1 in a frame without one; tagged reports a shard key.
// The entered and updated lists are taken in any order: a delta is a
// change set, not an answer the router merges.
func (s *scanner) delta() (d DeltaJSON, versionEnd int, tagged bool) {
	versionEnd = -1
	s.members(deltaKeys, func(f int) {
		switch f {
		case 0:
			d.Seq = s.uint64()
		case 1:
			d.Version = s.uint64()
			versionEnd = s.i
		case 2:
			d.Shard, tagged = s.text(), true
		case 3:
			d.Entered = list(s, 0, s.match)
		case 4:
			d.Updated = list(s, 0, s.match)
		case 5:
			d.Left = list(s, 0, func() int64 { return s.int(64) })
		case 6:
			d.Error = s.text()
		case 7:
			d.Coalesced = int(s.int(strconv.IntSize))
		case 8:
			d.Cost = s.cost()
		}
	})
	return d, versionEnd, tagged
}
