package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/uncertain"
)

// The write path's half of the codec: the update batch and its reply,
// the delta frame and its relay.

// toDeltaJSON is the conversion every delta went through on its way to
// json.Marshal before AppendDelta wrote frames itself: the reference
// AppendDelta is held to.
func toDeltaJSON(d monitor.Delta) DeltaJSON {
	dj := DeltaJSON{
		Seq:       d.Seq,
		Version:   d.Version,
		Entered:   ToMatchesJSON(d.Entered),
		Updated:   ToMatchesJSON(d.Updated),
		Coalesced: d.Coalesced,
		Cost:      ToCostJSON(d.Cost),
	}
	if d.Err != nil {
		dj.Error = d.Err.Error()
	}
	for _, id := range d.Left {
		dj.Left = append(dj.Left, int64(id))
	}
	return dj
}

// decodeDelta decodes one delta frame with the scanner the relay checks
// frames with.
func decodeDelta(frame []byte) (DeltaJSON, error) {
	s := &scanner{p: frame}
	d, _, _ := s.delta()
	if err := s.end(); err != nil {
		return DeltaJSON{}, err
	}
	return d, nil
}

// relayShard is the shard tag the relay tests splice in; it needs
// escaping.
const relayShard = "b/7<&>"

func randomUpdate(rng *rand.Rand) UpdateJSON {
	ops := []string{"upsert_object", "upsert_point", "delete_object", "delete_point", randomString(rng)}
	u := UpdateJSON{Op: ops[rng.IntN(len(ops))], ID: randomID(rng)}
	if rng.IntN(2) == 0 {
		u.X, u.Y = randomP(rng), randomP(rng)
	}
	switch rng.IntN(4) {
	case 0:
		u.Region = []float64{}
	case 1, 2:
		u.Region = make([]float64, 4+rng.IntN(2)-rng.IntN(2))
		for i := range u.Region {
			u.Region[i] = randomP(rng)
		}
	}
	if rng.IntN(3) == 0 {
		u.PDF, u.SigmaX, u.SigmaY = randomString(rng), randomP(rng), -randomP(rng)
	}
	return u
}

func randomUpdatesRequest(rng *rand.Rand) UpdatesRequest {
	switch rng.IntN(6) {
	case 0:
		return UpdatesRequest{}
	case 1:
		return UpdatesRequest{Updates: []UpdateJSON{}}
	}
	r := UpdatesRequest{Updates: make([]UpdateJSON, 1+rng.IntN(40))}
	for i := range r.Updates {
		r.Updates[i] = randomUpdate(rng)
	}
	return r
}

func randomStrings(rng *rand.Rand) []string {
	switch rng.IntN(3) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	ss := make([]string, 1+rng.IntN(4))
	for i := range ss {
		ss[i] = randomString(rng)
	}
	return ss
}

func randomUpdatesResponse(rng *rand.Rand) UpdatesResponse {
	n := func() int { return rng.IntN(100) - rng.IntN(3) }
	r := UpdatesResponse{
		Seq: rng.Uint64() >> rng.IntN(64), Applied: n(), Missing: n(), Version: rng.Uint64() >> rng.IntN(64),
		Reevaluated: n(), Skipped: n(), Entered: n(), Left: n(), Changed: n(),
		Errors: randomStrings(rng), MissingShards: randomStrings(rng), Partial: rng.IntN(3) == 0,
	}
	switch rng.IntN(3) {
	case 0:
		r.Versions = map[string]uint64{} // omitted like nil
	case 1:
		r.Versions = map[string]uint64{}
		for range 1 + rng.IntN(4) {
			r.Versions[randomString(rng)] = rng.Uint64() >> rng.IntN(64)
		}
	}
	return r
}

// randomEngineMatches is nil, empty or a list in no particular order: a
// delta's lists are change sets.
func randomEngineMatches(rng *rand.Rand) []core.Match {
	switch rng.IntN(4) {
	case 0:
		return nil
	case 1:
		return []core.Match{}
	}
	ms := make([]core.Match, 1+rng.IntN(6))
	for i := range ms {
		ms[i] = core.Match{ID: uncertain.ID(randomID(rng)), P: randomP(rng)}
	}
	return ms
}

func randomDelta(rng *rand.Rand) monitor.Delta {
	d := monitor.Delta{
		Seq: rng.Uint64() >> rng.IntN(64), Version: rng.Uint64() >> rng.IntN(64),
		Entered: randomEngineMatches(rng), Updated: randomEngineMatches(rng),
		Coalesced: rng.IntN(4),
		Cost: core.Cost{
			Candidates: rng.IntN(500), Refined: rng.IntN(50), SamplesUsed: rng.Int64N(1 << 40),
			EarlyStopped: rng.IntN(5), NodeAccesses: rng.Int64N(100), Duration: time.Duration(rng.Int64N(1e12)),
		},
	}
	switch rng.IntN(3) {
	case 0:
		d.Left = []uncertain.ID{}
	case 1:
		for range 1 + rng.IntN(5) {
			d.Left = append(d.Left, uncertain.ID(randomID(rng)))
		}
	}
	if rng.IntN(4) == 0 {
		d.Err = errors.New(randomString(rng)) // "" is omitted, as encoding/json omits it
	}
	return d
}

// sameDeltaAsStd is sameBodyAsStd for a delta frame, plus its relay:
// the relayed frame is json.Marshal of the frame's DeltaJSON with the
// shard tag set.
func sameDeltaAsStd(t *testing.T, d *monitor.Delta, reindent bool) {
	t.Helper()
	dj := toDeltaJSON(*d)
	frame := stdMarshal(t, dj)
	got, err := AppendDelta([]byte("prefix"), d)
	if err != nil || !bytes.Equal(got, append([]byte("prefix"), frame...)) {
		t.Fatalf("delta encode (err %v):\n got %s\n std %s", err, got, frame)
	}
	dj.Shard = relayShard
	relayed, err := AppendRelayedDelta([]byte("prefix"), frame, relayShard)
	if want := append([]byte("prefix"), stdMarshal(t, dj)...); err != nil || !bytes.Equal(relayed, want) {
		t.Fatalf("relay (err %v):\n got %s\n std %s", err, relayed, want)
	}
	body := frame
	if reindent {
		var indented bytes.Buffer
		if err := json.Indent(&indented, frame, "\t", " "); err != nil {
			t.Fatal(err)
		}
		body = indented.Bytes()
	}
	var want DeltaJSON
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if scanned, err := decodeDelta(body); err != nil || !reflect.DeepEqual(scanned, want) {
		t.Fatalf("delta decode (err %v) of %s:\n got %+v\n std %+v", err, body, scanned, want)
	}
}

// stdDecode decodes a request body the way every server did before the
// strict decoders (DecodeUpdatesRequest, DecodeRequest,
// DecodeNNCandidatesRequest) replaced it.
func stdDecode[T any](body []byte) (T, *json.Decoder, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var r T
	err := dec.Decode(&r)
	return r, dec, err
}

// sameStrictDecode holds a request decoder to the json.Decoder decode it
// replaced, on one body — the same verdict and the same struct, but for
// the two documented refusals, and an unknown key refused in
// encoding/json's words — and its encoder to json.Marshal on what it
// accepted. It returns the decoded request, and whether there was one.
func sameStrictDecode[T any](t *testing.T, body []byte, decode func([]byte) (T, error), appendTo func([]byte, *T) ([]byte, error)) (T, bool) {
	t.Helper()
	got, err := decode(body)
	want, dec, stdErr := stdDecode[T](body)
	var zero T
	switch {
	case err == nil && stdErr != nil:
		t.Fatalf("accepts what encoding/json refuses (%v): %q", stdErr, body)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("decoders disagree on %q:\nscan %+v\n std %+v", body, got, want)
	case err != nil && (!errors.Is(err, ErrBody) || !reflect.DeepEqual(got, zero)):
		t.Fatalf("refusal is not a bare ErrBody: %+v, %v", got, err)
	case err != nil && stdErr == nil && !documentedRefusal(dec, body):
		t.Fatalf("refuses what encoding/json accepts (%v): %q", err, body)
	case err != nil && stdErr != nil && errors.As(err, new(unknownFieldError)) &&
		strings.HasPrefix(stdErr.Error(), "json: unknown field") && err.Error() != stdErr.Error():
		t.Fatalf("unknown field %q, encoding/json says %q: %q", err, stdErr, body)
	}
	if err != nil {
		return zero, false
	}
	enc, err := appendTo(nil, &got)
	if std := stdMarshal(t, got); err != nil || !bytes.Equal(enc, std) {
		t.Fatalf("encoders disagree (err %v):\n got %s\n std %s", err, enc, std)
	}
	return got, true
}

// documentedRefusal reports whether body, which dec accepted, is one of
// the two kinds the strict decoders refuse on purpose: bytes after the
// value, or a key repeated in one object.
func documentedRefusal(dec *json.Decoder, body []byte) bool {
	return len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 || hasDuplicateKey(body)
}

// hasDuplicateKey reports whether an object in body's first value
// repeats a key, as encoding/json matches keys to fields: case folded.
func hasDuplicateKey(body []byte) bool {
	type level struct {
		object, wantKey bool
		keys            []string
	}
	var stack []*level
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if n := len(stack); n > 0 && stack[n-1].wantKey && tok != json.Delim('}') {
			top, key := stack[n-1], tok.(string)
			for _, k := range top.keys {
				if strings.EqualFold(k, key) {
					return true
				}
			}
			top.keys, top.wantKey = append(top.keys, key), false
			continue
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &level{object: true, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, &level{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		// A value ended: the object holding it wants a key next, and the
		// end of the first value ends the walk.
		if len(stack) == 0 {
			return false
		}
		if top := stack[len(stack)-1]; top.object {
			top.wantKey = true
		}
	}
}

// TestDecodeUpdatesRequest: the /v1/updates decoder against the
// json.Decoder + DisallowUnknownFields decode it replaced, case by case
// — what both accept decodes to the same struct, what both refuse is
// refused (an unknown key in encoding/json's own words), and the two
// documented exceptions are refused although encoding/json takes them.
func TestDecodeUpdatesRequest(t *testing.T) {
	for name, body := range map[string]string{
		"the golden batch":      goldenBatch,
		"null body":             `null`,
		"null list":             `{"updates":null}`,
		"empty object":          `{}`,
		"empty list":            `{"updates":[]}`,
		"null everywhere":       `{"updates":[null,{"op":null,"id":null,"x":null,"y":null,"region":null,"pdf":null,"sigma_x":null,"sigma_y":null},{"op":"upsert_object","region":[1,null,3,4]}]}`,
		"folded keys":           `{"UPDATES":[{"Op":"upsert_point","ID":3,"X":1.5,"\u017figma_x":2,"Region":[]}]}`,
		"whitespace, escapes":   " {\"updates\" : [ {\"op\":\"upsert\\u005fpoint\", \"id\": -0, \"x\": 1E2, \"y\": -0.0 } ] } \n",
		"non-UTF-8 string":      `{"updates":[{"op":"` + "\xff\xc0" + `","pdf":"\ud83d"}]}`,
		"any op, any pdf":       `{"updates":[{"op":"teleport","pdf":"cauchy","sigma_y":-3}]}`,
		"underflow":             `{"updates":[{"x":1e-999}]}`,
		"region of any length":  `{"updates":[{"op":"upsert_object","region":[1,2,3]}]}`,
		"ops the server knows":  `{"updates":[{"op":"upsert_object"},{"op":"upsert_point"},{"op":"delete_object"},{"op":"delete_point"}]}`,
		"large ids and coords":  `{"updates":[{"id":-9223372036854775808,"x":1.7976931348623157e308,"y":5e-324}]}`,
		"nested in whitespace":  "\t\r\n{\"updates\":[\n{}\n]}",
		"upper-case exponent":   `{"updates":[{"x":1E+2,"y":2e-2}]}`,
		"escaped key":           `{"upd\u0061tes":[{"\u006fp":"delete_point"}]}`,
		"zero update":           `{"updates":[{}]}`,
		"unicode op":            `{"updates":[{"op":"caf\u00e9 \u2028"}]}`,
		"two nulls in a region": `{"updates":[{"region":[null,null]}]}`,
	} {
		want, _, stdErr := stdDecode[UpdatesRequest]([]byte(body))
		if stdErr != nil {
			t.Errorf("%s: encoding/json refuses the case itself: %v", name, stdErr)
			continue
		}
		if got, err := DecodeUpdatesRequest([]byte(body)); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s (err %v):\n got %+v\nwant %+v", name, err, got, want)
		}
	}

	for name, body := range map[string]string{
		"unknown top-level key":  `{"updatez":[]}`,
		"unknown update key":     `{"updates":[{"op":"upsert_object","id":7,"regoin":[480,480,520,520]}]}`,
		"unknown key, escaped":   `{"updates":[{"w\u006frkers":4}]}`,
		"empty body":             ``,
		"whitespace only":        " \n",
		"truncated":              goldenBatch[:len(goldenBatch)-7],
		"top-level array":        `[{"updates":[]}]`,
		"top-level string":       `"updates"`,
		"updates is an object":   `{"updates":{}}`,
		"update is a number":     `{"updates":[7]}`,
		"id with a fraction":     `{"updates":[{"id":1.5}]}`,
		"id with an exponent":    `{"updates":[{"id":1e2}]}`,
		"id beyond int64":        `{"updates":[{"id":9223372036854775808}]}`,
		"x is a string":          `{"updates":[{"x":"1"}]}`,
		"x out of range":         `{"updates":[{"x":1e999}]}`,
		"op is a number":         `{"updates":[{"op":5}]}`,
		"region is an object":    `{"updates":[{"region":{}}]}`,
		"region holds a string":  `{"updates":[{"region":["1",2,3,4]}]}`,
		"region nested":          `{"updates":[{"region":[[1],2,3,4]}]}`,
		"bad literal":            `{"updates":[{"x":nul}]}`,
		"leading zero":           `{"updates":[{"id":01}]}`,
		"control character":      "{\"updates\":[{\"op\":\"a\nb\"}]}",
		"missing comma":          `{"updates":[{"op":"a" "id":1}]}`,
		"trailing comma":         `{"updates":[{"op":"a"},]}`,
		"unquoted key":           `{updates:[]}`,
		"NaN":                    `{"updates":[{"x":NaN}]}`,
		"bad escape":             `{"updates":[{"op":"\x"}]}`,
		"true for the body":      `true`,
		"bool for a coordinate":  `{"updates":[{"sigma_x":true}]}`,
		"unterminated string":    `{"updates":[{"op":"upsert`,
		"unterminated object":    `{"updates":[{"op":"upsert_point"`,
		"array for the op":       `{"updates":[{"op":["upsert_point"]}]}`,
		"object for the id":      `{"updates":[{"id":{}}]}`,
		"bare minus":             `{"updates":[{"x":-}]}`,
		"fraction without digit": `{"updates":[{"x":1.}]}`,
	} {
		_, _, stdErr := stdDecode[UpdatesRequest]([]byte(body))
		if stdErr == nil {
			t.Errorf("%s: encoding/json accepts the case itself", name)
			continue
		}
		got, err := DecodeUpdatesRequest([]byte(body))
		if !errors.Is(err, ErrBody) || !reflect.DeepEqual(got, UpdatesRequest{}) {
			t.Errorf("%s: got %+v, err %v; want the zero value and ErrBody", name, got, err)
		}
		if strings.HasPrefix(stdErr.Error(), "json: unknown field") && (err == nil || err.Error() != stdErr.Error()) {
			t.Errorf("%s: err %q, want encoding/json's %q", name, err, stdErr)
		}
	}

	for name, body := range map[string]string{
		"duplicate key":         `{"updates":[{"op":"delete_point","op":"upsert_point"}]}`,
		"duplicate folded key":  `{"updates":[],"Updates":[{}]}`,
		"duplicate null key":    `{"updates":[{"x":null,"x":1}]}`,
		"bytes after the value": `{"updates":[]} {}`,
		"garbage after":         `{"updates":[{"op":"delete_point","id":1}]}x`,
		"null and more":         `null null`,
		"null with trailing":    `nullx`,
	} {
		_, dec, stdErr := stdDecode[UpdatesRequest]([]byte(body))
		if stdErr != nil || !documentedRefusal(dec, []byte(body)) {
			t.Errorf("%s: not a documented exception (encoding/json: %v)", name, stdErr)
		}
		if got, err := DecodeUpdatesRequest([]byte(body)); !errors.Is(err, ErrBody) || !reflect.DeepEqual(got, UpdatesRequest{}) {
			t.Errorf("%s: got %+v, err %v; want the zero value and ErrBody", name, got, err)
		}
	}
}

// TestDecodeUpdatesRequestBoundsItsReservation: a body at the cap made
// of braces — in the list, or inside a string in it — is refused, and
// the decode allocates a bounded amount on the way, not a list with
// room for an update per brace.
func TestDecodeUpdatesRequestBoundsItsReservation(t *testing.T) {
	flood := func(head, tail string) []byte {
		b := append(make([]byte, 0, MaxBodyBytes), head...)
		b = append(b, bytes.Repeat([]byte("{"), MaxBodyBytes-len(head)-len(tail))...)
		return append(b, tail...)
	}
	for name, body := range map[string][]byte{
		"braces in the list": flood(`{"updates":[`, ``),
		"braces in a string": flood(`{"updates":["`, `"]}`),
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := DecodeUpdatesRequest(body)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBody) {
			t.Errorf("%s: err %v, want ErrBody", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("%s: the decode allocated %d bytes; want at most 1 MB", name, n)
		}
	}
}

// stalledBody yields its bytes and then fails, as the body of a client
// that stops sending before its Content-Length does once the connection
// is cut.
type stalledBody struct{ r io.Reader }

func (b stalledBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (stalledBody) Close() error { return nil }

// TestReadBodyReservesWhatArrives: a request announcing a body at the
// cap holds a buffer of the bytes it sent and the bounded pre-size, not
// the cap; a body within the bound reads into one buffer of about its
// size.
func TestReadBodyReservesWhatArrives(t *testing.T) {
	sent := strings.Repeat("{", 1000)
	r := httptest.NewRequest("POST", "/v1/updates", stalledBody{strings.NewReader(sent)})
	r.ContentLength = MaxBodyBytes
	body, err := readBody(httptest.NewRecorder(), r, nil)
	if err == nil || string(body) != sent {
		t.Fatalf("stalled body: read %d bytes, err %v; want the %d sent and an error", len(body), err, len(sent))
	}
	if cap(body) > 2*maxPresize {
		t.Errorf("stalled body: holds a %d-byte buffer for %d bytes sent; want at most %d", cap(body), len(sent), 2*maxPresize)
	}

	batch := moveBatch(t)
	r = httptest.NewRequest("POST", "/v1/updates", bytes.NewReader(batch))
	body, err = readBody(httptest.NewRecorder(), r, nil)
	if err != nil || !bytes.Equal(body, batch) {
		t.Fatalf("batch: read %d of %d bytes, err %v", len(body), len(batch), err)
	}
	if cap(body) > 2*(len(batch)+bytes.MinRead) {
		t.Errorf("batch: a %d-byte buffer for a %d-byte body", cap(body), len(batch))
	}
}

// TestRelayRefusesUntaggableFrames: a frame the relay cannot tag is an
// ErrBody and no bytes, like a torn one.
func TestRelayRefusesUntaggableFrames(t *testing.T) {
	for name, frame := range map[string]string{
		"torn":                  goldenDelta[:len(goldenDelta)-5],
		"no version":            `{"seq":1,"entered":[{"id":1,"p":0.5}]}`,
		"empty object":          `{}`,
		"a shard tag":           goldenRelayed,
		"an empty shard tag":    `{"seq":1,"version":2,"shard":""}`,
		"a folded shard tag":    `{"version":2,"SHARD":"0"}`,
		"a version twice":       `{"version":2,"version":3}`,
		"version is a string":   `{"version":"2"}`,
		"negative version":      `{"version":-2}`,
		"null version":          `{"version":null}`,
		"trailing bytes":        goldenDelta + "{}",
		"top-level array":       `[` + goldenDelta + `]`,
		"left holds a float":    `{"version":2,"left":[1.5]}`,
		"entered holds a null":  `{"version":2,"entered":[null]}`,
		"the close event's {}":  `{}`,
		"empty":                 ``,
		"unknown value too big": `{"version":2,"x":` + strings.Repeat("[", maxSkipDepth+1) + strings.Repeat("]", maxSkipDepth+1) + `}`,
	} {
		if got, err := AppendRelayedDelta([]byte("prefix"), []byte(frame), relayShard); !errors.Is(err, ErrBody) || got != nil {
			t.Errorf("%s: relayed %q, err %v; want no bytes and ErrBody", name, got, err)
		}
	}
	// What the relay takes beyond a shard's own frames keeps its bytes:
	// unknown keys, key case and number spellings included.
	for frame, want := range map[string]string{
		`{"version":1,"left":[10],"cost":{"duration_ms":0.50}}`: `{"version":1,"shard":"b/7\u003c\u0026\u003e","left":[10],"cost":{"duration_ms":0.50}}`,
		`{"version":1,"entered":[{"id":10,"p":0.5}]}`:           `{"version":1,"shard":"b/7\u003c\u0026\u003e","entered":[{"id":10,"p":0.5}]}`,
		` { "Version" : 3 , "extra":[1,{}] } `:                  ` { "Version" : 3,"shard":"b/7\u003c\u0026\u003e" , "extra":[1,{}] } `,
	} {
		if got, err := AppendRelayedDelta(nil, []byte(frame), relayShard); err != nil || string(got) != want {
			t.Errorf("relay of %s (err %v):\n got %s\nwant %s", frame, err, got, want)
		}
	}
}

// TestValidateAgreesWithToUpdate: the router's check of an update —
// Validate, which skips the U-catalog — accepts exactly the updates
// ToUpdate accepts, with the same error, over a draw that reaches every
// error ToUpdate has.
func TestValidateAgreesWithToUpdate(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 1))
	ops := []string{"upsert_object", "upsert_object", "upsert_object", "upsert_point", "delete_object", "delete_point", "", "upsert", "Upsert_Object"}
	odd := []float64{0, -1, 1e-300, 1e308, -1e308, math.NaN(), math.Inf(1), math.Inf(-1)}
	pdfs := []string{"", "uniform", "gaussian", "gaussian", "cauchy"}
	sigmas := []float64{0, 0, 5, 40, -1, 1e-300, 1e300, math.NaN(), math.Inf(1)}
	objects, refused := 0, 0
	for range 5000 {
		uj := UpdateJSON{
			Op: ops[rng.IntN(len(ops))], ID: randomID(rng), X: rng.Float64() * 1e4, Y: odd[rng.IntN(len(odd))],
			PDF: pdfs[rng.IntN(len(pdfs))], SigmaX: sigmas[rng.IntN(len(sigmas))], SigmaY: sigmas[rng.IntN(len(sigmas))],
		}
		n := 4
		if rng.IntN(5) == 0 {
			n = rng.IntN(6)
		}
		x, y := rng.Float64()*1e4, rng.Float64()*1e4
		uj.Region = []float64{x, y, x + 1 + rng.Float64()*100, y + 1 + rng.Float64()*100}[:min(n, 4)]
		for len(uj.Region) < n {
			uj.Region = append(uj.Region, 1)
		}
		for i := range uj.Region {
			if rng.IntN(8) == 0 {
				uj.Region[i] = odd[rng.IntN(len(odd))]
			}
		}
		_, err := uj.ToUpdate()
		verr := uj.Validate()
		if (err == nil) != (verr == nil) || err != nil && err.Error() != verr.Error() {
			t.Fatalf("%+v: ToUpdate says %v, Validate says %v", uj, err, verr)
		}
		switch {
		case err != nil:
			refused++
		case uj.Op == "upsert_object":
			objects++
		}
	}
	if objects < 500 || refused < 500 {
		t.Fatalf("the draw built %d objects and refused %d updates; want both common", objects, refused)
	}
}

// FuzzDecodeUpdatesRequest: the /v1/updates decoder is a differential
// against the json.Decoder + DisallowUnknownFields decode it replaced —
// the same verdict and the same struct, but for the two documented
// refusals — the encoder writes what json.Marshal writes for what it
// accepts, and every update it accepts converts (ToUpdate) to a value
// or an error, never a panic, with Validate agreeing.
func FuzzDecodeUpdatesRequest(f *testing.F) {
	f.Add(moveBatch(f))
	f.Add([]byte(goldenBatch))
	f.Add([]byte(`{"updates":[null,{"op":"upsert_object","region":[1,null,3,4],"pdf":"gaussian","sigma_x":1e-300}]}`))
	f.Add([]byte(`{"UPDATES":[{"Op":"upsert_point","\u017figma_x":2}],"updates":[]}`))
	f.Add([]byte(`{"updates":[{"op":"upsert_object","id":7,"regoin":[480,480,520,520]}]}`))
	f.Add([]byte(`{"updates":[]} {"updates":[]}`))
	f.Add([]byte(`{"updates":[{"op":"upsert_object","region":[-1e308,-1e308,1e308,1e308]}]}`))
	f.Add([]byte(`{"updates":[{"op":"upsert_object","region":[-1e308,0,1e308,1],"pdf":"gaussian"}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, _ := sameStrictDecode(t, body, DecodeUpdatesRequest, AppendUpdatesRequest)
		for _, u := range got.Updates {
			upd, uerr := u.ToUpdate()
			if verr := u.Validate(); (uerr == nil) != (verr == nil) {
				t.Fatalf("%+v: ToUpdate says %v, Validate says %v", u, uerr, verr)
			}
			if uerr == nil && upd.Object != nil {
				if err := finiteObject(upd.Object); err != nil {
					t.Fatalf("%+v: ToUpdate accepted an object %v", u, err)
				}
			}
		}
	})
}

// FuzzRelayDeltaFrame: for every frame the relay either refuses with
// ErrBody and no bytes, or emits bytes that json.Unmarshal reads back
// as the frame's own DeltaJSON with the shard tag set.
func FuzzRelayDeltaFrame(f *testing.F) {
	f.Add([]byte(goldenDelta))
	f.Add([]byte(goldenRelayed))
	f.Add([]byte(goldenDelta[:len(goldenDelta)/2]))
	f.Add(relayFrame(f))
	f.Add([]byte(`{"version":1,"entered":[{"id":10,"p":0.5}]}`))
	f.Add([]byte(` { "Version" : 3 , "extra":[1,{"a":null}] , "Left":[-0]} `))
	f.Add([]byte(`{"seq":1,"Shard":"x","version":2}`))
	f.Add([]byte(`{"version":2,"error":"\ud83d\ude00\ud83d","cost":{"DURATION_MS":1e-7}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, frame []byte) {
		out, err := AppendRelayedDelta(nil, frame, relayShard)
		if err != nil {
			if !errors.Is(err, ErrBody) || out != nil {
				t.Fatalf("refusal is not a bare ErrBody: %q, %v", out, err)
			}
			return
		}
		var want DeltaJSON
		if err := json.Unmarshal(frame, &want); err != nil {
			t.Fatalf("relays what json.Unmarshal refuses (%v): %q", err, frame)
		}
		want.Shard = relayShard
		var got DeltaJSON
		if err := json.Unmarshal(out, &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("relayed %q as %q (err %v):\n got %+v\nwant %+v", frame, out, err, got, want)
		}
	})
}

// moveBatch is a write the size of the benchmark's ingest_standing
// batch — 24 object moves and 8 point moves, ~3.5 KB — as a client
// sends it.
func moveBatch(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewPCG(32, 1))
	var req UpdatesRequest
	for range 24 {
		x, y := rng.Float64()*1e4, rng.Float64()*1e4
		req.Updates = append(req.Updates, UpdateJSON{Op: "upsert_object", ID: rng.Int64N(57_000),
			Region: []float64{x, y, x + 20 + rng.Float64()*60, y + 20 + rng.Float64()*60}})
	}
	for range 8 {
		req.Updates = append(req.Updates, UpdateJSON{Op: "upsert_point", ID: rng.Int64N(62_000), X: rng.Float64() * 1e4, Y: rng.Float64() * 1e4})
	}
	return stdMarshal(tb, req)
}

// relayFrame is a shard's delta frame as a move batch typically leaves
// one: an object entered, one left.
func relayFrame(tb testing.TB) []byte {
	tb.Helper()
	d := monitor.Delta{Seq: 48_213, Version: 51_877, Entered: []core.Match{{ID: 31_377, P: 0.7361818103170395}},
		Left: []uncertain.ID{12_845}, Coalesced: 1, Cost: core.Cost{Candidates: 3, Refined: 2, Duration: 41_250 * time.Nanosecond}}
	frame, err := AppendDelta(nil, &d)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// writeCodecOps returns the two operations the write path's codec does
// per batch and per frame, each reusing its buffers as the servers do:
// decode a client's batch and encode its two sub-batches (the router's
// share; a shard decodes one sub-batch), and relay one delta frame.
func writeCodecOps(tb testing.TB) (batch, relay func()) {
	body, frame := moveBatch(tb), relayFrame(tb)
	var buf []byte
	batch = func() {
		req, err := DecodeUpdatesRequest(body)
		if err != nil || len(req.Updates) != 32 {
			tb.Fatalf("decoded %d updates: %v", len(req.Updates), err)
		}
		for _, sub := range [][]UpdateJSON{req.Updates[:16], req.Updates[16:]} {
			if buf, err = AppendUpdatesRequest(buf[:0], &UpdatesRequest{Updates: sub}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	relay = func() {
		var err error
		if buf, err = AppendRelayedDelta(buf[:0], frame, "1"); err != nil {
			tb.Fatal(err)
		}
	}
	return batch, relay
}

// BenchmarkUpdatesCodec: one benchmark-sized batch decoded and its two
// sub-batches encoded, by encoding/json as the router did (std) and by
// the codec.
func BenchmarkUpdatesCodec(b *testing.B) {
	body := moveBatch(b)
	batch, _ := writeCodecOps(b)
	b.Run("std", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			req, _, err := stdDecode[UpdatesRequest](body)
			if err != nil {
				b.Fatal(err)
			}
			for _, sub := range [][]UpdateJSON{req.Updates[:16], req.Updates[16:]} {
				stdMarshal(b, UpdatesRequest{Updates: sub})
			}
		}
	})
	b.Run("codec", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			batch()
		}
	})
}

// BenchmarkRelayFrame: one delta frame relayed, decoded, tagged and
// encoded again as the router did (std), and checked and spliced by the
// codec.
func BenchmarkRelayFrame(b *testing.B) {
	frame := relayFrame(b)
	_, relay := writeCodecOps(b)
	b.Run("std", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for b.Loop() {
			var d DeltaJSON
			if err := json.Unmarshal(frame, &d); err != nil {
				b.Fatal(err)
			}
			d.Shard = "1"
			stdMarshal(b, d)
		}
	})
	b.Run("splice", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		b.ReportAllocs()
		for b.Loop() {
			relay()
		}
	})
}

// TestWriteCodecAllocationBudget pins what the write path's codec
// allocates per batch and per relayed frame: the measured values plus a
// small grace; a change that moves them re-measures and says so, as
// for core.TestApplyUpdatesAllocationBudget.
func TestWriteCodecAllocationBudget(t *testing.T) {
	const (
		batchBytesBudget = 4200 // measured 3 968: the list of 32 updates and 24 regions
		batchAllocBudget = 26   // measured 25
		relayBytesBudget = 32   // measured 24: the frame's entered and left lists
		relayAllocBudget = 2    // measured 2
	)
	batch, relay := writeCodecOps(t)
	for _, c := range []struct {
		name          string
		op            func()
		bytes, allocs float64
	}{
		{"batch", batch, batchBytesBudget, batchAllocBudget},
		{"relay", relay, relayBytesBudget, relayAllocBudget},
	} {
		bytesPer, allocsPer := allocsPerOp(c.op)
		t.Logf("%s: %.0f B, %.1f allocs", c.name, bytesPer, allocsPer)
		if bytesPer > c.bytes || allocsPer > c.allocs {
			t.Errorf("%s = %.0f B, %.1f allocs; budget %.0f B, %.0f allocs", c.name, bytesPer, allocsPer, c.bytes, c.allocs)
		}
	}
}

// allocsPerOp measures op's bytes and allocations per call, averaged
// over 500 calls after one that grows its reused buffers.
func allocsPerOp(op func()) (bytesPer, allocsPer float64) {
	const runs = 500
	op()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
}
