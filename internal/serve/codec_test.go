package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/pdf"
	"repro/internal/uncertain"
)

// stdEncode is the encoder the codec replaced and is held to, for a
// body a handler wrote through json.NewEncoder(w).Encode.
func stdEncode(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// stdMarshal is stdEncode for a body that went through json.Marshal:
// the router's sub-batches and the delta frames.
func stdMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenEvaluate and goldenRegister were recorded from
// json.NewEncoder(w).Encode at the commit before the append encoder
// existed (d1fa13c).
const (
	goldenEvaluate = `{"request_id":"41","kind":"uncertain","version":18446744073709551615,"matches":[{"id":7,"p":1},{"id":-9223372036854775808,"p":0.8414709848078965},{"id":9223372036854775807,"p":0.1},{"id":12,"p":0.000001},{"id":13,"p":9.5e-7},{"id":14,"p":1.5e-9},{"id":15,"p":5e-324},{"id":3,"p":0},{"id":4,"p":-0}],"cost":{"candidates":640,"refined":12,"samples_used":1099511627776,"early_stopped":3,"node_accesses":47,"duration_ms":1.234567},"trace":[{"stage":"pin","start_ms":0,"duration_ms":0.001},{"stage":"refine","start_ms":0.25,"duration_ms":1e+21,"node_accesses":5,"samples":1000,"items":12,"note":"grid=\u003c4x4\u003e \u0026 \"q\"\t\u2028\ufffd"}],"partial":true,"missing_shards":["1","b/2"]}` + "\n"
	goldenRegister = `{"id":-3,"kind":"points","snapshot":[{"id":2,"p":0.5},{"id":5,"p":0.5},{"id":1,"p":1.25e-7}]}` + "\n"
)

// The write path's bodies, recorded from encoding/json at the commit
// before the write path left it (953cd69): the batch as json.Marshal
// wrote a router's sub-batch, the reply as WriteJSON wrote it, the
// delta frame as WriteSSE wrote a shard's and the relayed frame as the
// router wrote it after decoding the shard's and setting its tag.
const (
	goldenBatch        = `{"updates":[{"op":"upsert_object","id":9007199254740993,"region":[4821.337512,0.000001,1e+21,5e-324],"pdf":"gaussian","sigma_x":12.5},{"op":"upsert_point","id":-4,"y":9.5e-7},{"op":"upsert_point","id":5,"y":7512.0000001},{"op":"delete_object","id":0},{"op":"delete_point","id":9223372036854775807,"sigma_y":-2},{"op":"\u003cop\u003e\u0026\u2028\ufffd","id":-9223372036854775808}]}`
	goldenUpdatesReply = `{"seq":18446744073709551615,"applied":32,"missing":1,"version":77,"reevaluated":64,"skipped":3,"entered":2,"left":1,"changed":5,"errors":["shard 1: update 3: unknown op \"x\"","\u003c\u0026\u003e"],"versions":{"0":77,"1":70,"10":3,"b\u003c2\u003e":1},"partial":true,"missing_shards":["2"]}` + "\n"
	goldenDelta        = `{"seq":12,"version":40,"entered":[{"id":7,"p":0.75},{"id":3,"p":1.5e-7}],"updated":[{"id":9,"p":0.5}],"left":[2,11],"error":"deadline \u003cexceeded\u003e \u0026 \"quoted\"","coalesced":2,"cost":{"candidates":5,"refined":3,"samples_used":4096,"early_stopped":1,"node_accesses":0,"duration_ms":1.234567}}`
	goldenRelayed      = `{"seq":12,"version":40,"shard":"1","entered":[{"id":7,"p":0.75},{"id":3,"p":1.5e-7}],"updated":[{"id":9,"p":0.5}],"left":[2,11],"error":"deadline \u003cexceeded\u003e \u0026 \"quoted\"","coalesced":2,"cost":{"candidates":5,"refined":3,"samples_used":4096,"early_stopped":1,"node_accesses":0,"duration_ms":1.234567}}`
)

func goldenWriteValues() (UpdatesRequest, UpdatesResponse, monitor.Delta) {
	batch := UpdatesRequest{Updates: []UpdateJSON{
		{Op: "upsert_object", ID: 9007199254740993, Region: []float64{4821.337512, 0.000001, 1e21, 5e-324}, PDF: "gaussian", SigmaX: 12.5},
		{Op: "upsert_point", ID: -4, Y: 9.5e-7},
		{Op: "upsert_point", ID: 5, X: math.Copysign(0, -1), Y: 7512.0000001},
		{Op: "delete_object", ID: 0},
		{Op: "delete_point", ID: math.MaxInt64, Region: []float64{}, SigmaY: -2},
		{Op: "<op>&\u2028\xff", ID: math.MinInt64},
	}}
	reply := UpdatesResponse{Seq: math.MaxUint64, Applied: 32, Missing: 1, Version: 77, Reevaluated: 64, Skipped: 3, Entered: 2, Left: 1, Changed: 5,
		Errors:   []string{`shard 1: update 3: unknown op "x"`, "<&>"},
		Versions: map[string]uint64{"1": 70, "0": 77, "b<2>": 1, "10": 3},
		Partial:  true, MissingShards: []string{"2"}}
	d := monitor.Delta{Seq: 12, Version: 40,
		Entered:   []core.Match{{ID: 7, P: 0.75}, {ID: 3, P: 1.5e-7}},
		Updated:   []core.Match{{ID: 9, P: 0.5}},
		Left:      []uncertain.ID{2, 11},
		Err:       errors.New(`deadline <exceeded> & "quoted"`),
		Coalesced: 2,
		Cost:      core.Cost{Candidates: 5, Refined: 3, SamplesUsed: 4096, EarlyStopped: 1, Duration: 1234567 * time.Nanosecond},
	}
	return batch, reply, d
}

func goldenValues() (EvaluateResponse, RegisterResponse) {
	ev := EvaluateResponse{
		RequestID: "41", Kind: "uncertain", Version: math.MaxUint64,
		Matches: []MatchJSON{
			{ID: 7, P: 1},
			{ID: math.MinInt64, P: 0.8414709848078965},
			{ID: math.MaxInt64, P: 0.1},
			{ID: 12, P: 1e-6},
			{ID: 13, P: 9.5e-7},
			{ID: 14, P: 1.5e-9},
			{ID: 15, P: 5e-324},
			{ID: 3, P: 0},
			{ID: 4, P: math.Copysign(0, -1)},
		},
		Cost: CostJSON{Candidates: 640, Refined: 12, SamplesUsed: 1 << 40, EarlyStopped: 3, NodeAccesses: 47, DurationMS: 1.234567},
		Trace: []SpanJSON{
			{Stage: "pin", StartMS: 0, DurationMS: 0.001},
			{Stage: "refine", StartMS: 0.25, DurationMS: 1e21, NodeAccesses: 5, Samples: 1000, Items: 12, Note: "grid=<4x4> & \"q\"\t\u2028\xff"},
		},
		Partial:       true,
		MissingShards: []string{"1", "b/2"},
	}
	reg := RegisterResponse{ID: -3, Kind: "points", Snapshot: []MatchJSON{{ID: 2, P: 0.5}, {ID: 5, P: 0.5}, {ID: 1, P: 1.25e-7}}}
	return ev, reg
}

// TestCodecGolden: every body is the bytes encoding/json wrote for it
// before this codec, and those bytes decode to what json.Unmarshal
// makes of them; a lone registration reply relayed is its own bytes,
// and the relayed frame is the one the router wrote.
func TestCodecGolden(t *testing.T) {
	ev, reg := goldenValues()
	goldenBody(t, "evaluate body", &ev, goldenEvaluate, appendEvaluate, decodeEvaluate)
	goldenBody(t, "register body", &reg, goldenRegister, appendRegister, decodeRegister)
	if relayed, err := relayLoneRegister([]byte(goldenRegister)); err != nil || string(relayed) != goldenRegister {
		t.Errorf("relayed register body (err %v):\n got %s\nwant %s", err, relayed, goldenRegister)
	}

	batch, reply, d := goldenWriteValues()
	goldenBody(t, "batch", &batch, goldenBatch, AppendUpdatesRequest, DecodeUpdatesRequest)
	goldenBody(t, "updates reply", &reply, goldenUpdatesReply, AppendUpdatesResponse, DecodeUpdatesResponse)
	goldenBody(t, "delta frame", &d, goldenDelta, AppendDelta, decodeDelta)
	relayed, err := AppendRelayedDelta(nil, []byte(goldenDelta), "1")
	if err != nil || string(relayed) != goldenRelayed {
		t.Errorf("relayed frame (err %v):\n got %s\nwant %s", err, relayed, goldenRelayed)
	}
}

// goldenBody checks that v encodes to golden and that golden decodes
// to what json.Unmarshal makes of it.
func goldenBody[V, T any](t *testing.T, what string, v *V, golden string, appendTo func([]byte, *V) ([]byte, error), decode func([]byte) (T, error)) {
	t.Helper()
	got, err := appendTo(nil, v)
	if err != nil || string(got) != golden {
		t.Errorf("%s (err %v):\n got %s\nwant %s", what, err, got, golden)
	}
	var want T
	if err := json.Unmarshal([]byte(golden), &want); err != nil {
		t.Fatal(err)
	}
	if scanned, err := decode([]byte(golden)); err != nil || !reflect.DeepEqual(scanned, want) {
		t.Errorf("%s decode (err %v):\n got %+v\nwant %+v", what, err, scanned, want)
	}
}

// randomP draws a finite probability-shaped float64 from the corners of
// encoding/json's float rule: raw bit patterns (subnormals, 17-digit
// mantissas, huge exponents), the 1e-6 and 1e21 format switches, zeros
// of both signs.
func randomP(rng *rand.Rand) float64 {
	for {
		var f float64
		switch rng.IntN(8) {
		case 0:
			f = math.Float64frombits(rng.Uint64())
		case 1:
			f = math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
		case 2:
			f = math.Copysign(0, -float64(rng.IntN(2)))
		case 3:
			f = 1e-6 * (1 + (rng.Float64()-0.5)*1e-12)
		case 4:
			f = 1e21 * (1 + (rng.Float64()-0.5)*1e-12)
		case 5:
			f = rng.Float64() * 1e-9
		case 6:
			f = float64(rng.IntN(100)) / 100 // ties, so ids decide the order
		default:
			f = rng.Float64()
		}
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func randomID(rng *rand.Rand) int64 {
	switch rng.IntN(4) {
	case 0:
		return int64(rng.Uint64()) // 19 digits, either sign
	case 1:
		return -rng.Int64N(1000)
	default:
		return rng.Int64N(1 << 20)
	}
}

var awkwardStrings = []string{"", "uncertain", "7", `a"b\c/d`, "<script>&amp;</script>", "tab\there\nnl\r\b\f", "\x00\x1f\x7f", "caf\u00e9 \u2028\u2029 \U0001F600", "bad\xffutf8\xc0", "\u017Fhard"}

func randomString(rng *rand.Rand) string { return awkwardStrings[rng.IntN(len(awkwardStrings))] }

// randomMatches is nil, empty, or a list in canonical order.
func randomMatches(rng *rand.Rand) []MatchJSON {
	switch rng.IntN(6) {
	case 0:
		return nil
	case 1:
		return []MatchJSON{}
	}
	ms := make([]MatchJSON, rng.IntN(24))
	for i := range ms {
		ms[i] = MatchJSON{ID: randomID(rng), P: randomP(rng)}
	}
	slices.SortFunc(ms, CompareMatchJSON)
	return slices.CompactFunc(ms, func(a, b MatchJSON) bool { return CompareMatchJSON(a, b) == 0 })
}

func randomEvaluateResponse(rng *rand.Rand) EvaluateResponse {
	r := EvaluateResponse{
		RequestID: randomString(rng),
		Kind:      randomString(rng),
		Version:   rng.Uint64() >> rng.IntN(64),
		Matches:   randomMatches(rng),
		Cost: CostJSON{
			Candidates: rng.IntN(2000), Refined: -rng.IntN(3), SamplesUsed: rng.Int64(),
			EarlyStopped: rng.IntN(10), NodeAccesses: rng.Int64N(100), DurationMS: randomP(rng),
		},
	}
	switch rng.IntN(4) {
	case 0:
		r.Trace = []SpanJSON{} // omitted like nil
	case 1:
		for range 1 + rng.IntN(4) {
			sp := SpanJSON{Stage: randomString(rng), StartMS: randomP(rng), DurationMS: randomP(rng)}
			if rng.IntN(2) == 0 {
				sp.NodeAccesses, sp.Samples, sp.Items, sp.Note = rng.Int64N(50), rng.Int64(), rng.IntN(700), randomString(rng)
			}
			r.Trace = append(r.Trace, sp)
		}
	}
	if rng.IntN(3) == 0 {
		r.Partial = true
		for range rng.IntN(3) {
			r.MissingShards = append(r.MissingShards, randomString(rng))
		}
	}
	return r
}

// sameBodyAsStd checks one body against encoding/json: the append
// encoder writes std's bytes, and the scanner reads them — as they are
// or, when reindent is set, spread over lines — into the struct
// json.Unmarshal reads them into.
func sameBodyAsStd[T any](t *testing.T, std func(testing.TB, any) []byte, v *T, reindent bool, appendTo func([]byte, *T) ([]byte, error), decode func([]byte) (T, error)) {
	t.Helper()
	body := std(t, v)
	got, err := appendTo([]byte("prefix"), v)
	if err != nil || !bytes.Equal(got, append([]byte("prefix"), body...)) {
		t.Fatalf("encode (err %v):\n got %s\n std %s", err, got, body)
	}
	if reindent {
		var indented bytes.Buffer
		if err := json.Indent(&indented, body, "\t", " "); err != nil {
			t.Fatal(err)
		}
		body = indented.Bytes()
	}
	var want T
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	scanned, err := decode(body)
	if err != nil || !reflect.DeepEqual(scanned, want) {
		t.Fatalf("decode (err %v) of %s:\n got %+v\n std %+v", err, body, scanned, want)
	}
}

// engineList is ms as the engine holds a match list.
func engineList(ms []MatchJSON) []core.Match {
	if ms == nil {
		return nil
	}
	out := make([]core.Match, len(ms))
	for i, m := range ms {
		out[i] = core.Match{ID: uncertain.ID(m.ID), P: m.P}
	}
	return out
}

// appendEvaluate and appendRegister write r as a shard does, from the
// engine's form of its match list.
func appendEvaluate(dst []byte, r *EvaluateResponse) ([]byte, error) {
	return AppendEngineEvaluateResponse(dst, r, engineList(r.Matches))
}

func appendRegister(dst []byte, r *RegisterResponse) ([]byte, error) {
	return appendEngineRegisterResponse(dst, r, engineList(r.Snapshot))
}

// decodeEvaluate and decodeRegister read a shard's reply as the router
// does, less the elements' bytes.
func decodeEvaluate(body []byte) (EvaluateResponse, error) {
	r, err := DecodeEvaluateReply(body)
	return r.EvaluateResponse, err
}

func decodeRegister(body []byte) (RegisterResponse, error) {
	r, err := DecodeRegisterResponse(body)
	return r.RegisterResponse, err
}

// TestCodecMatchesEncodingJSON is the differential that pins the codec
// to encoding/json: for random bodies of every kind the bytes and the
// decoded structs are identical, and a relayed delta frame is the
// frame encoding/json writes with its shard tag set.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	for i := range 3000 {
		// A match list is always a list, and the reply scanner takes its
		// elements only as a shard writes them, so those two bodies are
		// spread over lines only when the list is empty ([] stays []).
		ev := listed(randomEvaluateResponse(rng))
		sameBodyAsStd(t, stdEncode, &ev, i%4 == 0 && len(ev.Matches) == 0, appendEvaluate, decodeEvaluate)
		reg := listedSnapshot(RegisterResponse{ID: randomID(rng), Kind: randomString(rng), Snapshot: randomMatches(rng)})
		sameBodyAsStd(t, stdEncode, &reg, i%4 == 1 && len(reg.Snapshot) == 0, appendRegister, decodeRegister)
		batch := randomUpdatesRequest(rng)
		sameBodyAsStd(t, stdMarshal, &batch, i%4 == 2, AppendUpdatesRequest, DecodeUpdatesRequest)
		rep := randomUpdatesResponse(rng)
		sameBodyAsStd(t, stdEncode, &rep, i%4 == 3, AppendUpdatesResponse, DecodeUpdatesResponse)
		d := randomDelta(rng)
		sameDeltaAsStd(t, &d, i%4 == 0)
	}
}

// TestEngineMatchesEncodeAsTheirCopy: a shard encodes the engine's
// slice directly; the bytes are those of the ToMatchesJSON copy,
// a list even for a nil slice.
func TestEngineMatchesEncodeAsTheirCopy(t *testing.T) {
	head := EvaluateResponse{RequestID: "1", Kind: "points", Version: 3}
	reg := RegisterResponse{ID: 5, Kind: "uncertain"}
	for _, ms := range [][]core.Match{nil, {}, {{ID: 4, P: 0.75}, {ID: -2, P: 0.25}}} {
		got, err := AppendEngineEvaluateResponse(nil, &head, ms)
		copied := head
		copied.Matches = ToMatchesJSON(ms)
		if want := stdEncode(t, copied); err != nil || !bytes.Equal(got, want) {
			t.Errorf("engine matches %v (err %v):\n got %s\nwant %s", ms, err, got, want)
		}
		got, err = appendEngineRegisterResponse(nil, &reg, ms)
		copiedReg := reg
		copiedReg.Snapshot = ToMatchesJSON(ms)
		if want := stdEncode(t, copiedReg); err != nil || !bytes.Equal(got, want) {
			t.Errorf("engine snapshot %v (err %v):\n got %s\nwant %s", ms, err, got, want)
		}
	}
}

// TestEncoderRefusesNonFinite: a NaN or Inf anywhere is an error and no
// bytes, as with encoding/json.
func TestEncoderRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var ev EvaluateResponse
		if got, err := AppendEngineEvaluateResponse(nil, &ev, []core.Match{{ID: 1, P: bad}}); err == nil || got != nil {
			t.Errorf("p=%v encoded: %s", bad, got)
		}
		if got, err := appendEngineRegisterResponse(nil, &RegisterResponse{}, []core.Match{{ID: 1, P: bad}}); err == nil || got != nil {
			t.Errorf("snapshot p=%v encoded: %s", bad, got)
		}
		ev = EvaluateResponse{Cost: CostJSON{DurationMS: bad}}
		if got, err := AppendEngineEvaluateResponse(nil, &ev, nil); err == nil || got != nil {
			t.Errorf("duration_ms=%v encoded: %s", bad, got)
		}
	}
}

const minimalEvaluate = `{"request_id":"1","kind":"points","version":2,"matches":[{"id":1,"p":0.5},{"id":2,"p":0.25}],"cost":{"candidates":2,"refined":0,"samples_used":0,"early_stopped":0,"node_accesses":1,"duration_ms":0.1}}`

// TestDecoderAccepts: what the reply scanner takes beyond its own
// encoder's output, each checked against json.Unmarshal. Inside a match
// list it takes only the layout a shard writes (TestDecoderRefuses).
func TestDecoderAccepts(t *testing.T) {
	deep := strings.Repeat("[", maxSkipDepth) + strings.Repeat("]", maxSkipDepth)
	for name, body := range map[string]string{
		"any key order":       `{"cost":{"duration_ms":0.1,"candidates":2},"matches":[{"id":1,"p":0.5}],"version":2,"kind":"points","request_id":"1"}`,
		"whitespace":          " {\n\t\"kind\" : \"points\" ,\r\n \"matches\" : [{\"id\":1,\"p\":5e-1},{\"id\":2,\"p\":0.25E0}] , \"cost\" : { \"refined\" : 3 } } \n",
		"unknown keys":        `{"kind":"points","later":{"a":[1,-2.5e3,true,false,null,"s\u00e9\n",{}],"b":{}},"matches":[{"id":1,"p":0.5}],"also":[]}`,
		"unknown value depth": `{"kind":"points","deep":` + deep + `}`,
		"folded keys":         `{"KIND":"points","Matches":[{"id":1,"p":0.5}],"\u017Fnapshot":1,"co\u017Ft":{"Refined":3}}`,
		"escapes":             `{"kind":"a\"\\\/\b\f\n\r\t\u003c\u00E9\ud83d\ude00\ud83dx\ude00\ud83d\u0041","request_id":"` + "caf\xc3\xa9 \xff" + `"}`,
		"null lists":          `{"matches":null,"trace":null,"missing_shards":null}`,
		"empty lists":         `{"matches":[],"trace":[],"missing_shards":[]}`,
		"empty object":        `{}`,
		"empty elements":      `{"trace":[{}]}`,
		"equal p by id":       `{"matches":[{"id":-5,"p":0.5},{"id":3,"p":0.5},{"id":4,"p":0.5}]}`,
		"zero of either sign": `{"matches":[{"id":1,"p":0},{"id":2,"p":-0}]}`,
		"-0 int":              `{"matches":[{"id":-0,"p":1}]}`,
		"underflow":           `{"matches":[{"id":1,"p":1e-999}]}`,
	} {
		var want EvaluateResponse
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Errorf("%s: json.Unmarshal refuses the case itself: %v", name, err)
			continue
		}
		got, err := DecodeEvaluateReply([]byte(body))
		if err != nil || !reflect.DeepEqual(got.EvaluateResponse, want) {
			t.Errorf("%s (err %v):\n got %+v\nwant %+v", name, err, got.EvaluateResponse, want)
		}
	}
}

// TestDecoderRefuses: one case per refusal, each an ErrBody and a zero
// value — never a partly filled struct.
func TestDecoderRefuses(t *testing.T) {
	tooDeep := strings.Repeat("[", maxSkipDepth+1) + strings.Repeat("]", maxSkipDepth+1)
	for name, body := range map[string]string{
		"empty body":              ``,
		"truncated":               minimalEvaluate[:len(minimalEvaluate)-9],
		"truncated in a string":   `{"kind":"poi`,
		"truncated in an escape":  `{"kind":"poi\`,
		"trailing garbage":        minimalEvaluate + `{}`,
		"two values":              minimalEvaluate + "\n" + minimalEvaluate,
		"top-level array":         `[` + minimalEvaluate + `]`,
		"top-level null":          `null`,
		"p is a string":           `{"matches":[{"id":1,"p":"x"}]}`,
		"p out of range":          `{"matches":[{"id":1,"p":1e999}]}`,
		"p is NaN":                `{"matches":[{"id":1,"p":NaN}]}`,
		"id with a fraction":      `{"matches":[{"id":1.0,"p":1}]}`,
		"id with an exponent":     `{"matches":[{"id":1e2,"p":1}]}`,
		"id beyond int64":         `{"matches":[{"id":9223372036854775808,"p":1}]}`,
		"leading zero":            `{"matches":[{"id":01,"p":1}]}`,
		"bare minus":              `{"matches":[{"id":-,"p":1}]}`,
		"fraction without digits": `{"matches":[{"id":1,"p":1.}]}`,
		"exponent without digits": `{"matches":[{"id":1,"p":1e}]}`,
		"negative version":        `{"version":-1}`,
		"unsorted by p":           `{"matches":[{"id":1,"p":0.25},{"id":2,"p":0.5}]}`,
		"unsorted by id":          `{"matches":[{"id":2,"p":0.5},{"id":1,"p":0.5}]}`,
		"duplicated match":        `{"matches":[{"id":1,"p":0.5},{"id":1,"p":0.5}]}`,
		"unsorted snapshot order": `{"matches":[{"id":1,"p":0.5},{"id":2,"p":0.75},{"id":3,"p":0.25}]}`,
		"null match":              `{"matches":[null]}`,
		"match is a number":       `{"matches":[7]}`,
		"matches is an object":    `{"matches":{}}`,
		"duplicate key":           `{"kind":"points","kind":"points"}`,
		"duplicate folded key":    `{"kind":"points","Kind":"points"}`,
		"duplicate match key":     `{"matches":[{"id":1,"p":0.5,"id":1}]}`,
		"duplicate list":          `{"matches":[{"id":1,"p":1}],"matches":[{"p":2}]}`,
		"null scalar":             `{"version":null}`,
		"null cost":               `{"cost":null}`,
		"kind is a number":        `{"kind":5}`,
		"partial is a string":     `{"partial":"true"}`,
		"partial misspelled":      `{"partial":tru}`,
		"missing shard is null":   `{"missing_shards":[null]}`,
		"unknown nested too deep": `{"deep":` + tooDeep + `}`,
		"unknown value malformed": `{"later":[1,]}`,
		"unknown literal":         `{"later":nul}`,
		"bad escape":              `{"kind":"a\x"}`,
		"single-quote escape":     `{"kind":"a\'"}`,
		"bad \\u escape":          `{"kind":"\u12G4"}`,
		"short \\u escape":        `{"kind":"\u12"}`,
		"control character":       "{\"kind\":\"a\nb\"}",
		"unquoted key":            `{kind:"points"}`,
		"missing colon":           `{"kind" "points"}`,
		"missing comma":           `{"kind":"points" "version":1}`,
		"trailing comma":          `{"kind":"points",}`,
		"array trailing comma":    `{"matches":[{"id":1,"p":1},]}`,
		"match keys in any order": `{"matches":[{"p":0.5,"id":1}]}`,
		"whitespace in a match":   `{"matches":[{"id":1,"p": 0.5}]}`,
		"whitespace between":      `{"matches":[{"id":1,"p":0.5}, {"id":2,"p":0.25}]}`,
		"whitespace in brackets":  `{"matches":[ {"id":1,"p":0.5}]}`,
		"unknown key in a match":  `{"matches":[{"id":1,"p":0.5,"extra":"x"}]}`,
		"folded match keys":       `{"matches":[{"ID":1,"P":0.5}]}`,
		"empty match":             `{"matches":[{}]}`,
		"match without p":         `{"matches":[{"id":1}]}`,
	} {
		got, err := DecodeEvaluateReply([]byte(body))
		if !errors.Is(err, ErrBody) {
			t.Errorf("%s: err = %v, want ErrBody", name, err)
		}
		if !reflect.DeepEqual(got, EvaluateReply{}) {
			t.Errorf("%s: a refused body still produced %+v", name, got)
		}
	}
	for name, body := range map[string]string{
		"unsorted snapshot":   `{"id":1,"kind":"points","snapshot":[{"id":1,"p":0.25},{"id":2,"p":0.5}]}`,
		"duplicated snapshot": `{"id":1,"kind":"points","snapshot":[{"id":1,"p":0.5},{"id":1,"p":0.5}]}`,
		"id is a string":      `{"id":"1"}`,
		"truncated":           goldenRegister[:len(goldenRegister)-3],
		"trailing garbage":    goldenRegister + "x",
		"another layout":      `{"id":1,"kind":"points","snapshot":[{"p":0.5,"id":1}]}`,
		"whitespace":          `{"id":1,"kind":"points","snapshot":[{"id":1,"p":0.5}, {"id":2,"p":0.25}]}`,
	} {
		got, err := DecodeRegisterResponse([]byte(body))
		if !errors.Is(err, ErrBody) || !reflect.DeepEqual(got, RegisterReply{}) {
			t.Errorf("register, %s: got %+v, err %v; want the zero value and ErrBody", name, got, err)
		}
	}
}

// realServer is a shard holding 536 objects, ~536 of which qualify for
// range_ro's question — the benchmark's range_ro answer size.
func realServer(tb testing.TB) *Server {
	tb.Helper()
	eng, err := core.NewEngine(nil, nil, core.EngineOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(536, 1))
	var batch []core.Update
	for id := range 536 {
		x, y := 4000+rng.Float64()*2000, 4000+rng.Float64()*2000
		u, err := UpdateJSON{Op: "upsert_object", ID: 100_000_000 + 7919*int64(id), Region: []float64{x, y, x + 20 + rng.Float64()*60, y + 20 + rng.Float64()*60}}.ToUpdate()
		if err != nil {
			tb.Fatal(err)
		}
		batch = append(batch, u)
	}
	if rep := eng.ApplyUpdates(batch); rep.Applied != len(batch) {
		tb.Fatalf("applied %d of %d updates: %v", rep.Applied, len(batch), rep.Errors)
	}
	return NewServer(monitor.New(eng, monitor.Config{Workers: 1}), core.EvalOptions{}, Config{})
}

// realReply is the real shard's answer to range_ro's question, as the
// handler wrote it.
func realReply(tb testing.TB) []byte {
	tb.Helper()
	rec := httptest.NewRecorder()
	realServer(tb).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate",
		strings.NewReader(`{"issuer":{"region":[4900,4900,5100,5100]},"w":1500,"h":1500}`)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// relayLone relays body as the router relays the reply of the one shard
// a query touched: the reply's own fields, its match list as its bytes.
func relayLone(body []byte) ([]byte, error) {
	rep, err := DecodeEvaluateReply(body)
	if err != nil {
		return nil, err
	}
	return AppendRelayedEvaluateResponse(nil, &rep.EvaluateResponse, []EvaluateReply{rep})
}

// relayLoneRegister is relayLone for a registration reply.
func relayLoneRegister(body []byte) ([]byte, error) {
	rep, err := DecodeRegisterResponse(body)
	if err != nil {
		return nil, err
	}
	return AppendRelayedRegisterResponse(nil, &rep.RegisterResponse, []RegisterReply{rep})
}

// listed is r with a null or absent match list read as empty: the
// router and the shard encoder always answer a list.
func listed(r EvaluateResponse) EvaluateResponse {
	if r.Matches == nil {
		r.Matches = []MatchJSON{}
	}
	return r
}

// listedSnapshot is listed for a registration reply.
func listedSnapshot(r RegisterResponse) RegisterResponse {
	if r.Snapshot == nil {
		r.Snapshot = []MatchJSON{}
	}
	return r
}

// realRegisterReply is the real shard's reply to the registration of
// range_ro's question, as the handler wrote it.
func realRegisterReply(tb testing.TB) []byte {
	tb.Helper()
	rec := httptest.NewRecorder()
	realServer(tb).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/queries",
		strings.NewReader(`{"issuer":{"region":[4900,4900,5100,5100]},"w":1500,"h":1500}`)))
	if rec.Code != http.StatusCreated {
		tb.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// FuzzDecodeEvaluateResponse: for arbitrary bytes each reply decoder —
// of an evaluate reply and of a registration reply — returns a value or
// an ErrBody and never panics, and whatever it accepts json.Unmarshal
// accepts too, into the same struct, which the shard encoder then writes
// as encoding/json does. The router's relay of a lone reply is a body
// json.Unmarshal reads as that struct, and relaying a body the shard
// encoder wrote gives back its bytes exactly.
func FuzzDecodeEvaluateResponse(f *testing.F) {
	real := realReply(f)
	if n := bytes.Count(real, []byte(`"id"`)); n < 500 {
		f.Fatalf("the real reply has %d matches, want the benchmark's ~536", n)
	}
	f.Add(real)
	for i := range 8 {
		f.Add(real[:len(real)*(i+1)/9])
	}
	f.Add([]byte(goldenEvaluate))
	f.Add([]byte(`{"kind":"points","kind":"nn","matches":[{"id":1,"p":1}],"matches":[{"p":2}]}`))
	f.Add([]byte(`{"matches":[{"id":1,"p":1e999}]}`))
	f.Add([]byte(`{"x":` + strings.Repeat(`{"x":`, maxSkipDepth) + `1` + strings.Repeat(`}`, maxSkipDepth) + `}`))
	f.Add([]byte(`{"Matches":[{"Id":3,"P":0.5e0}],"co\u017ft":{"REFINED":-0},"trace":[{"note":"\ud83d\ude00\ud83d"}]} `))
	f.Add([]byte(`{"matches":[{"id":-0,"p":-0},{"id":-9223372036854775808,"p":-1e-7}],"matches_x":[]}`))
	f.Add([]byte(`{"matches":[{"id":1,"p":0.5} ,{"id":2,"p":0.25}]}`))
	f.Add([]byte(`{"matches":null,"kind":"uncertain"}`))
	reg := realRegisterReply(f)
	if n := bytes.Count(reg, []byte(`"id"`)); n < 500 {
		f.Fatalf("the real registration reply has %d matches, want the benchmark's ~536", n)
	}
	f.Add(reg)
	f.Add([]byte(goldenRegister))
	f.Add([]byte(`{"ID":-0,"Snapshot":null,"kind":"uncertain","snapshot_x":[{"id":1}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rep, err := DecodeEvaluateReply(body)
		if err != nil {
			if !errors.Is(err, ErrBody) || !reflect.DeepEqual(rep, EvaluateReply{}) {
				t.Fatalf("refusal is not a bare ErrBody: %+v, %v", rep, err)
			}
		} else {
			got := rep.EvaluateResponse
			var want EvaluateResponse
			if err := json.Unmarshal(body, &want); err != nil {
				t.Fatalf("scanner accepts what json.Unmarshal refuses (%v): %q", err, body)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoders disagree on %q:\nscan %+v\n std %+v", body, got, want)
			}
			relayed, err := relayLone(body)
			var back EvaluateResponse
			if err != nil || json.Unmarshal(relayed, &back) != nil || !reflect.DeepEqual(back, listed(got)) {
				t.Fatalf("relay of %q (err %v) is %q, which does not read back as\n%+v", body, err, relayed, listed(got))
			}
			asList := listed(got)
			enc, err := appendEvaluate(nil, &asList)
			if std := stdEncode(t, asList); err != nil || !bytes.Equal(enc, std) {
				t.Fatalf("encoders disagree (err %v):\n got %s\n std %s", err, enc, std)
			}
			if relayed, err := relayLone(enc); err != nil || !bytes.Equal(relayed, enc) {
				t.Fatalf("relay of an encoded body (err %v):\n got %s\nwant %s", err, relayed, enc)
			}
		}

		reg, err := DecodeRegisterResponse(body)
		if err != nil {
			if !errors.Is(err, ErrBody) || !reflect.DeepEqual(reg, RegisterReply{}) {
				t.Fatalf("registration refusal is not a bare ErrBody: %+v, %v", reg, err)
			}
			return
		}
		got := reg.RegisterResponse
		var want RegisterResponse
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("registration scanner accepts what json.Unmarshal refuses (%v): %q", err, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("registration decoders disagree on %q:\nscan %+v\n std %+v", body, got, want)
		}
		relayed, err := relayLoneRegister(body)
		var back RegisterResponse
		if err != nil || json.Unmarshal(relayed, &back) != nil || !reflect.DeepEqual(back, listedSnapshot(got)) {
			t.Fatalf("registration relay of %q (err %v) is %q, which does not read back as\n%+v", body, err, relayed, listedSnapshot(got))
		}
		asList := listedSnapshot(got)
		enc, err := appendRegister(nil, &asList)
		if std := stdEncode(t, asList); err != nil || !bytes.Equal(enc, std) {
			t.Fatalf("registration encoders disagree (err %v):\n got %s\n std %s", err, enc, std)
		}
		if relayed, err := relayLoneRegister(enc); err != nil || !bytes.Equal(relayed, enc) {
			t.Fatalf("relay of an encoded registration (err %v):\n got %s\nwant %s", err, relayed, enc)
		}
	})
}

// FuzzRequestJSON: the decoders of the query request and of the NN
// candidate request that carries one are a differential against the
// json.Decoder + DisallowUnknownFields decode they replaced — the same
// verdict and the same struct, but for the two documented refusals —
// their encoders write what json.Marshal writes for every request they
// accept, and a query request they accept converts (ToRequest) to a
// typed request error or a request that validates.
func FuzzRequestJSON(f *testing.F) {
	f.Add([]byte(`{"issuer":{"region":[450,450,550,550]},"w":100,"h":100,"threshold":0.3}`))
	f.Add([]byte(`{"kind":"points","issuer":{"region":[0,0,10,10],"pdf":"gaussian","sigma_x":2},"w":5,"h":5,"trace":true}`))
	f.Add([]byte(`{"kind":"nn","issuer":{"region":[900,5100,1100,5300]},"k":1,"nn_samples":64,"seed":5}`))
	f.Add([]byte(`{"target":"points","issuer":{"region":[10,10,0,0]},"w":-1,"h":1e308}`))
	f.Add([]byte(`{"kind":"nn","issuer":{"region":[-1e308,-1e308,1e308,1e308]},"k":1}`))
	f.Add([]byte(`{"kind":"points","issuer":{"region":[-1e308,-1e308,1e308,1e308]},"w":1e308,"h":1e308}`))
	f.Add([]byte(`{"issuer":{"region":[-1e308,0,1e308,1],"pdf":"gaussian"},"w":1,"h":1}`))
	f.Add([]byte(`{"issuer":{"region":[0,0,1]},"w":1,"h":1}`))
	f.Add([]byte(`{"issuer":{"region":[0,0,1,1]},"w":1,"w":2}`))
	f.Add([]byte(`{"issuer":{"region":[0,0,1,1],"Region":[0,0,2,2]},"w":1}`))
	f.Add([]byte(`{"issuer":{"region":[0,0,1,1]},"w":1,"h":1} {}`))
	f.Add([]byte(`{"issuer":{"region":[0,0,1,1]},"w":1,"h":1}x`))
	f.Add([]byte(`{"KIND":"points","Issuer":{"REGION":[0,0,10,10],"Sigma_X":2},"W":5,"H":5,"\u017feed":3,"Nn_Samples":8}`))
	f.Add([]byte(`{"issuer":null,"w":1,"h":1}`))
	f.Add([]byte(`{"issuer":{"region":null,"pdf":null},"w":null,"trace":null}`))
	f.Add([]byte(`{"issuer":{"region":[0,null,1,1]},"w":1,"h":1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"issuer":{"region":[450,450,550,550]},"w":100,"h":100,"workers":4}`))
	f.Add([]byte(`{"request":{"kind":"nn","issuer":{"region":[900,5100,1100,5300]},"k":1,"nn_samples":64,"seed":5},"tau_bound":141.4,"limit":65536}`))
	f.Add([]byte(`{"request":null,"tau_bound":null,"limit":-1}`))
	f.Add([]byte(`{"request":{"kind":"nn"},"Request":{}}`))
	f.Add([]byte(`{"request":{"kind":"nn","issuer":{"region":[0,0,1,1]},"k":1,"workers":4}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		if rj, ok := sameStrictDecode(t, body, DecodeRequest, AppendRequest); ok {
			checkToRequest(t, body, rj)
		}
		if nr, ok := sameStrictDecode(t, body, DecodeNNCandidatesRequest, AppendNNCandidatesRequest); ok {
			checkToRequest(t, body, nr.Request)
		}
	})
}

// checkToRequest: a decoded request converts to a typed request error
// or to a request that validates, with an issuer an engine can query
// with.
func checkToRequest(t *testing.T, body []byte, rj RequestJSON) {
	t.Helper()
	req, err := rj.ToRequest()
	if err != nil {
		var reqErr *core.RequestError
		if !errors.As(err, &reqErr) || reqErr.Field == "" {
			t.Fatalf("untyped error for %q: %v", body, err)
		}
		return
	}
	if err := req.Validate(); err != nil {
		t.Fatalf("ToRequest passed a request that does not validate (%v): %q", err, body)
	}
	if err := finiteObject(req.Issuer); err != nil {
		t.Fatalf("ToRequest passed an issuer %v: %q", err, body)
	}
}

// finiteObject reports an object whose support extent or U-catalog row
// is not finite: an object no engine may index or query with.
func finiteObject(o *uncertain.Object) error {
	if err := pdf.CheckFiniteSupport(o.Region()); err != nil {
		return err
	}
	for _, b := range o.Catalog.Bounds() {
		for _, v := range []float64{b.P, b.Left, b.Right, b.Bottom, b.Top} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("catalog row %+v is not finite", b)
			}
		}
	}
	return nil
}

// rangeRequest is range_ro's question as a client sends it.
var rangeRequest = RequestJSON{Kind: "uncertain", Issuer: IssuerJSON{Region: []float64{4821.337512, 5160.25, 5021.337512, 5360.25}}, W: 1500, H: 1500, Threshold: 0.3}

// relayOps returns the router's codec work per range reply and per
// request, each reusing its buffer as the servers do: relay scans a
// shard's reply and writes the client body from it, request encodes
// the hop's request and decodes it as the shard does.
func relayOps(tb testing.TB) (relay, request func()) {
	body := realReply(tb)
	var buf []byte
	relay = func() {
		rep, err := DecodeEvaluateReply(body)
		if err != nil {
			tb.Fatal(err)
		}
		head := EvaluateResponse{Kind: rep.Kind, Version: rep.Version, Cost: rep.Cost}
		if buf, err = AppendRelayedEvaluateResponse(buf[:0], &head, []EvaluateReply{rep}); err != nil {
			tb.Fatal(err)
		}
	}
	request = func() {
		var err error
		if buf, err = AppendRequest(buf[:0], &rangeRequest); err != nil {
			tb.Fatal(err)
		}
		if _, err := DecodeRequest(buf); err != nil {
			tb.Fatal(err)
		}
	}
	return relay, request
}

// BenchmarkEvaluateResponseCodec: the reflection codec against the
// shard's append encoder and the router's reply scanner, on the
// range_ro answer; the router's relay of that answer; and the query
// request's codec against encoding/json.
func BenchmarkEvaluateResponseCodec(b *testing.B) {
	body := realReply(b)
	var resp EvaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		b.Fatal(err)
	}
	matches := engineList(resp.Matches)
	relay, request := relayOps(b)
	b.Run("relay", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			relay()
		}
	})
	b.Run("request-std", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			enc := stdMarshal(b, rangeRequest)
			dec := json.NewDecoder(bytes.NewReader(enc))
			dec.DisallowUnknownFields()
			var rj RequestJSON
			if err := dec.Decode(&rj); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("request", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			request()
		}
	})
	b.Run("std-encode", func(b *testing.B) {
		var buf bytes.Buffer
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		var buf []byte
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var err error
			if buf, err = AppendEngineEvaluateResponse(buf[:0], &resp, matches); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("std-decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var out EvaluateResponse
			if err := json.Unmarshal(body, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			if _, err := DecodeEvaluateReply(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRelayAllocationBudget pins what the router's codec allocates per
// range reply it relays and per query request it encodes and decodes:
// the measured values plus a small grace, as TestWriteCodecAllocationBudget
// does for the write path. A change that moves them re-measures and says
// so.
func TestRelayAllocationBudget(t *testing.T) {
	const (
		relayBytesBudget   = 10_000 // measured 9 472: the match list, sized by the reply's 538 braces
		relayAllocBudget   = 2      // measured 1
		requestBytesBudget = 48     // measured 32: the issuer's region
		requestAllocBudget = 2      // measured 1
	)
	relay, request := relayOps(t)
	for _, c := range []struct {
		name          string
		op            func()
		bytes, allocs float64
	}{
		{"relay", relay, relayBytesBudget, relayAllocBudget},
		{"request", request, requestBytesBudget, requestAllocBudget},
	} {
		bytesPer, allocsPer := allocsPerOp(c.op)
		t.Logf("%s: %.0f B, %.1f allocs", c.name, bytesPer, allocsPer)
		if bytesPer > c.bytes || allocsPer > c.allocs {
			t.Errorf("%s = %.0f B, %.1f allocs; budget %.0f B, %.0f allocs", c.name, bytesPer, allocsPer, c.bytes, c.allocs)
		}
	}
}
