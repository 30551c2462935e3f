package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/monitor"
)

// stdEncode is the encoder the codec replaced and is held to.
func stdEncode(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// goldenEvaluate and goldenRegister were recorded from
// json.NewEncoder(w).Encode at the commit before the append encoder
// existed (d1fa13c).
const (
	goldenEvaluate = `{"request_id":"41","kind":"uncertain","version":18446744073709551615,"matches":[{"id":7,"p":1},{"id":-9223372036854775808,"p":0.8414709848078965},{"id":9223372036854775807,"p":0.1},{"id":12,"p":0.000001},{"id":13,"p":9.5e-7},{"id":14,"p":1.5e-9},{"id":15,"p":5e-324},{"id":3,"p":0},{"id":4,"p":-0}],"cost":{"candidates":640,"refined":12,"samples_used":1099511627776,"early_stopped":3,"node_accesses":47,"duration_ms":1.234567},"trace":[{"stage":"pin","start_ms":0,"duration_ms":0.001},{"stage":"refine","start_ms":0.25,"duration_ms":1e+21,"node_accesses":5,"samples":1000,"items":12,"note":"grid=\u003c4x4\u003e \u0026 \"q\"\t\u2028\ufffd"}],"partial":true,"missing_shards":["1","b/2"]}` + "\n"
	goldenRegister = `{"id":-3,"kind":"points","snapshot":[{"id":2,"p":0.5},{"id":5,"p":0.5},{"id":1,"p":1.25e-7}]}` + "\n"
)

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

// TestCodecGolden: the two bodies are the bytes encoding/json wrote for
// them before this codec, and those bytes decode to what json.Unmarshal
// makes of them.
func TestCodecGolden(t *testing.T) {
	ev, reg := goldenValues()
	got, err := AppendEvaluateResponse(nil, &ev)
	if err != nil || string(got) != goldenEvaluate {
		t.Errorf("evaluate body (err %v):\n got %s\nwant %s", err, got, goldenEvaluate)
	}
	got, err = AppendRegisterResponse(nil, &reg)
	if err != nil || string(got) != goldenRegister {
		t.Errorf("register body (err %v):\n got %s\nwant %s", err, got, goldenRegister)
	}

	var wantEv EvaluateResponse
	if err := json.Unmarshal([]byte(goldenEvaluate), &wantEv); err != nil {
		t.Fatal(err)
	}
	if gotEv, err := DecodeEvaluateResponse([]byte(goldenEvaluate)); err != nil || !reflect.DeepEqual(gotEv, wantEv) {
		t.Errorf("evaluate decode (err %v):\n got %+v\nwant %+v", err, gotEv, wantEv)
	}
	var wantReg RegisterResponse
	if err := json.Unmarshal([]byte(goldenRegister), &wantReg); err != nil {
		t.Fatal(err)
	}
	if gotReg, err := DecodeRegisterResponse([]byte(goldenRegister)); err != nil || !reflect.DeepEqual(gotReg, wantReg) {
		t.Errorf("register decode (err %v):\n got %+v\nwant %+v", err, gotReg, wantReg)
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
func sameBodyAsStd[T any](t *testing.T, v *T, reindent bool, appendTo func([]byte, *T) ([]byte, error), decode func([]byte) (T, error)) {
	t.Helper()
	body := stdEncode(t, v)
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
	var std T
	if err := json.Unmarshal(body, &std); err != nil {
		t.Fatal(err)
	}
	scanned, err := decode(body)
	if err != nil || !reflect.DeepEqual(scanned, std) {
		t.Fatalf("decode (err %v) of %s:\n got %+v\n std %+v", err, body, scanned, std)
	}
}

// TestCodecMatchesEncodingJSON is the differential that pins the codec
// to encoding/json: for random responses the bytes and the decoded
// structs are identical.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	for i := range 3000 {
		ev := randomEvaluateResponse(rng)
		sameBodyAsStd(t, &ev, i%4 == 0, AppendEvaluateResponse, DecodeEvaluateResponse)
		reg := RegisterResponse{ID: randomID(rng), Kind: randomString(rng), Snapshot: randomMatches(rng)}
		sameBodyAsStd(t, &reg, i%4 == 1, AppendRegisterResponse, DecodeRegisterResponse)

		ms, err := AppendMatches(nil, ev.Matches)
		if want := bytes.TrimSuffix(stdEncode(t, ev.Matches), []byte("\n")); err != nil || !bytes.Equal(ms, want) {
			t.Fatalf("AppendMatches (err %v):\n got %s\n std %s", err, ms, want)
		}
	}
}

// TestEngineMatchesEncodeAsTheirCopy: a shard encodes the engine's
// slice directly; the bytes are those of the ToMatchesJSON copy,
// a list even for a nil slice.
func TestEngineMatchesEncodeAsTheirCopy(t *testing.T) {
	head := EvaluateResponse{RequestID: "1", Kind: "points", Version: 3}
	for _, ms := range [][]core.Match{nil, {}, {{ID: 4, P: 0.75}, {ID: -2, P: 0.25}}} {
		got, err := appendEngineEvaluateResponse(nil, &head, ms)
		copied := head
		copied.Matches = ToMatchesJSON(ms)
		if want := stdEncode(t, copied); err != nil || !bytes.Equal(got, want) {
			t.Errorf("engine matches %v (err %v):\n got %s\nwant %s", ms, err, got, want)
		}
	}
}

// TestEncoderRefusesNonFinite: a NaN or Inf anywhere is an error and no
// bytes, as with encoding/json.
func TestEncoderRefusesNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ev := EvaluateResponse{Matches: []MatchJSON{{ID: 1, P: bad}}}
		if got, err := AppendEvaluateResponse(nil, &ev); err == nil || got != nil {
			t.Errorf("p=%v encoded: %s", bad, got)
		}
		ev = EvaluateResponse{Cost: CostJSON{DurationMS: bad}}
		if got, err := AppendEvaluateResponse(nil, &ev); err == nil || got != nil {
			t.Errorf("duration_ms=%v encoded: %s", bad, got)
		}
	}
}

const minimalEvaluate = `{"request_id":"1","kind":"points","version":2,"matches":[{"id":1,"p":0.5},{"id":2,"p":0.25}],"cost":{"candidates":2,"refined":0,"samples_used":0,"early_stopped":0,"node_accesses":1,"duration_ms":0.1}}`

// TestDecoderAccepts: what the scanner takes beyond its own encoder's
// output, each checked against json.Unmarshal.
func TestDecoderAccepts(t *testing.T) {
	deep := strings.Repeat("[", maxSkipDepth) + strings.Repeat("]", maxSkipDepth)
	for name, body := range map[string]string{
		"any key order":       `{"cost":{"duration_ms":0.1,"candidates":2},"matches":[{"p":0.5,"id":1}],"version":2,"kind":"points","request_id":"1"}`,
		"whitespace":          " {\n\t\"kind\" : \"points\" ,\r\n \"matches\" : [ { \"id\" : 1 , \"p\" : 5e-1 } , {\"id\":2,\"p\":0.25E0} ] } \n",
		"unknown keys":        `{"kind":"points","later":{"a":[1,-2.5e3,true,false,null,"s\u00e9\n",{}],"b":{}},"matches":[{"id":1,"p":0.5,"extra":"x"}],"also":[]}`,
		"unknown value depth": `{"kind":"points","deep":` + deep + `}`,
		"folded keys":         `{"KIND":"points","Matches":[{"ID":1,"P":0.5}],"\u017Fnapshot":1,"co\u017Ft":{"Refined":3}}`,
		"escapes":             `{"kind":"a\"\\\/\b\f\n\r\t\u003c\u00E9\ud83d\ude00\ud83dx\ude00\ud83d\u0041","request_id":"` + "caf\xc3\xa9 \xff" + `"}`,
		"null lists":          `{"matches":null,"trace":null,"missing_shards":null}`,
		"empty lists":         `{"matches":[],"trace":[],"missing_shards":[]}`,
		"empty object":        `{}`,
		"empty elements":      `{"matches":[{}],"trace":[{}]}`,
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
		got, err := DecodeEvaluateResponse([]byte(body))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s (err %v):\n got %+v\nwant %+v", name, err, got, want)
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
	} {
		got, err := DecodeEvaluateResponse([]byte(body))
		if !errors.Is(err, ErrBody) {
			t.Errorf("%s: err = %v, want ErrBody", name, err)
		}
		if !reflect.DeepEqual(got, EvaluateResponse{}) {
			t.Errorf("%s: a refused body still produced %+v", name, got)
		}
	}
	for name, body := range map[string]string{
		"unsorted snapshot":   `{"id":1,"kind":"points","snapshot":[{"id":1,"p":0.25},{"id":2,"p":0.5}]}`,
		"duplicated snapshot": `{"id":1,"kind":"points","snapshot":[{"id":1,"p":0.5},{"id":1,"p":0.5}]}`,
		"id is a string":      `{"id":"1"}`,
		"truncated":           goldenRegister[:len(goldenRegister)-3],
		"trailing garbage":    goldenRegister + "x",
	} {
		got, err := DecodeRegisterResponse([]byte(body))
		if !errors.Is(err, ErrBody) || !reflect.DeepEqual(got, RegisterResponse{}) {
			t.Errorf("register, %s: got %+v, err %v; want the zero value and ErrBody", name, got, err)
		}
	}
}

// realReply is a shard's answer to a range query that ~536 objects
// qualify for — the benchmark's range_ro answer size — as the handler
// wrote it.
func realReply(tb testing.TB) []byte {
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
	srv := NewServer(monitor.New(eng, monitor.Config{Workers: 1}), core.EvalOptions{}, Config{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate",
		strings.NewReader(`{"issuer":{"region":[4900,4900,5100,5100]},"w":1500,"h":1500}`)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// FuzzDecodeEvaluateResponse: for arbitrary bytes the scanner returns a
// value or an ErrBody, never panics, and whatever it accepts
// json.Unmarshal accepts too, into the same struct — which the append
// encoder then writes as encoding/json does.
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
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeEvaluateResponse(body)
		if err != nil {
			if !errors.Is(err, ErrBody) || !reflect.DeepEqual(got, EvaluateResponse{}) {
				t.Fatalf("refusal is not a bare ErrBody: %+v, %v", got, err)
			}
			return
		}
		var want EvaluateResponse
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("scanner accepts what json.Unmarshal refuses (%v): %q", err, body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoders disagree on %q:\nscan %+v\n std %+v", body, got, want)
		}
		enc, err := AppendEvaluateResponse(nil, &got)
		if std := stdEncode(t, got); err != nil || !bytes.Equal(enc, std) {
			t.Fatalf("encoders disagree (err %v):\n got %s\n std %s", err, enc, std)
		}
	})
}

// FuzzRequestJSON: whatever body a client sends, decoding it the way
// DecodeBody does and converting it yields a typed request error or a
// request that validates.
func FuzzRequestJSON(f *testing.F) {
	f.Add([]byte(`{"issuer":{"region":[450,450,550,550]},"w":100,"h":100,"threshold":0.3}`))
	f.Add([]byte(`{"kind":"points","issuer":{"region":[0,0,10,10],"pdf":"gaussian","sigma_x":2},"w":5,"h":5,"trace":true}`))
	f.Add([]byte(`{"kind":"nn","issuer":{"region":[900,5100,1100,5300]},"k":1,"nn_samples":64,"seed":5}`))
	f.Add([]byte(`{"target":"points","issuer":{"region":[10,10,0,0]},"w":-1,"h":1e308}`))
	f.Add([]byte(`{"kind":"nn","issuer":{"region":[-1e308,-1e308,1e308,1e308]},"k":1}`))
	f.Add([]byte(`{"issuer":{"region":[0,0,1]},"w":1,"h":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var rj RequestJSON
		if dec.Decode(&rj) != nil {
			return
		}
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
	})
}

// BenchmarkEvaluateResponseCodec: the reflection codec against the
// append encoder and the scanner, on the range_ro answer.
func BenchmarkEvaluateResponseCodec(b *testing.B) {
	body := realReply(b)
	var resp EvaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		b.Fatal(err)
	}
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
			if buf, err = AppendEvaluateResponse(buf[:0], &resp); err != nil {
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
			if _, err := DecodeEvaluateResponse(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
