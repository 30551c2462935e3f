package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/uncertain"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden file of the tests run (testdata/golden_*.json) from the current binary")

// goldenPin is one pinned evaluation outcome: every match with the bit
// pattern of its probability, and every cost counter but Duration.
type goldenPin struct {
	// Matches is "id:float64bits-hex" per match, in result order.
	Matches        string `json:"matches"`
	Candidates     int    `json:"candidates"`
	Pruned         [3]int `json:"pruned"`
	Refined        int    `json:"refined"`
	BelowThreshold int    `json:"below_threshold"`
	SamplesUsed    int64  `json:"samples_used"`
	EarlyStopped   int    `json:"early_stopped"`
	NodeAccesses   int64  `json:"node_accesses"`
	TauBits        string `json:"tau_bits"`
}

func pinOf(res Result) goldenPin {
	ms := make([]string, len(res.Matches))
	for i, m := range res.Matches {
		ms[i] = fmt.Sprintf("%d:%016x", m.ID, math.Float64bits(m.P))
	}
	c := res.Cost
	return goldenPin{
		Matches:        strings.Join(ms, " "),
		Candidates:     c.Candidates,
		Pruned:         [3]int{c.PrunedStrategy1, c.PrunedStrategy2, c.PrunedStrategy3},
		Refined:        c.Refined,
		BelowThreshold: c.BelowThreshold,
		SamplesUsed:    c.SamplesUsed,
		EarlyStopped:   c.EarlyStopped,
		NodeAccesses:   c.NodeAccesses,
		TauBits:        fmt.Sprintf("%016x", math.Float64bits(res.Tau)),
	}
}

// TestKernelGoldenPins compares the query kernels against answers
// recorded from the commit before they were collapsed to one
// implementation per idea (testdata/golden_pr13.json). Every other
// equivalence test compares two paths of the same binary, so none of
// them can see a refactor shift a sample stream; this one can. The
// matrix is kind × method × refinement regime × threshold × adaptive
// mode, plus EvaluateOnly over a fixed id subset and the NNCandidates →
// EvaluateNNCandidates split over simulated shards. Each matrix cell is
// pinned under two names, workers=1 and workers=4, recorded when a
// request could fan its refinement out over a pool; both now run the
// one serial path, which is the answer the pool had to match.
// Regenerate with `go test ./internal/core -run TestKernelGoldenPins
// -update` only when an answer is meant to change.
func TestKernelGoldenPins(t *testing.T) {
	const nPoints, nObjects, worldSeed = 400, 300, 4
	ctx := context.Background()
	center := geom.Pt(500, 500)
	worlds := map[bool]*Engine{
		false: testWorld(t, nPoints, nObjects, worldSeed),
		true:  mixedWorld(t, nPoints, nObjects, worldSeed), // non-separable objects beside separable ones
	}
	issuers := map[bool]*uncertain.Object{
		false: testIssuer(t, center, 40),
		true:  discIssuer(t, center, 40),
	}
	// A tighter issuer for NN, so some candidate clears each threshold
	// and early-stopped estimates are pinned too.
	nnIssuers := map[bool]*uncertain.Object{
		false: testIssuer(t, center, 12),
		true:  discIssuer(t, center, 12),
	}

	// regime is one refinement regime: which world and issuer, and the
	// options that force sampling.
	type regime struct {
		name     string
		nonSep   bool
		forceMC  bool
		pointMC  int
		kinds    []Kind
		enhanced bool // MethodBasic ignores the sampling switches; pin it on the plain regimes only
	}
	regimes := []regime{
		{name: "closed", kinds: []Kind{KindUncertain, KindPoints, KindNN}},
		{name: "nonsep", nonSep: true, kinds: []Kind{KindUncertain, KindPoints, KindNN}},
		{name: "forcemc", forceMC: true, kinds: []Kind{KindUncertain}, enhanced: true},
		{name: "pointmc", pointMC: 200, kinds: []Kind{KindPoints}, enhanced: true},
		{name: "nonsep-pointmc", nonSep: true, pointMC: 200, kinds: []Kind{KindPoints}, enhanced: true},
	}
	request := func(rg regime, kind Kind, method Method, qp float64, adaptive AdaptiveMode) Request {
		req := Request{Kind: kind, Issuer: issuers[rg.nonSep], Threshold: qp, Seed: 1234}
		if kind == KindNN {
			req.Issuer, req.K, req.NNSamples = nnIssuers[rg.nonSep], 5, 5000
		} else {
			req.W, req.H = 110, 110
		}
		req.Options.Method = method
		req.Options.PointMCSamples = rg.pointMC
		req.Options.Object.ForceMonteCarlo = rg.forceMC
		req.Options.Object.Adaptive = adaptive
		return req
	}

	got := map[string]goldenPin{}
	for _, rg := range regimes {
		for _, kind := range rg.kinds {
			methods := []Method{MethodEnhanced, MethodBasic}
			if kind == KindNN || rg.enhanced {
				methods = methods[:1]
			}
			for _, method := range methods {
				for _, qp := range []float64{0, 0.3, 0.9} {
					for _, adaptive := range []AdaptiveMode{AdaptiveAuto, AdaptiveOff} {
						for _, workers := range []int{1, 4} {
							name := fmt.Sprintf("%s/%s/%s/qp=%g/adaptive=%d/workers=%d", kind, method, rg.name, qp, adaptive, workers)
							resp, err := worlds[rg.nonSep].Evaluate(ctx, request(rg, kind, method, qp, adaptive))
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							got[name] = pinOf(resp.Result)
						}
					}
				}
			}
		}
	}

	// EvaluateOnly over a fixed id subset (every third id, plus one
	// absent from the table).
	var subset []uncertain.ID
	for id := 0; id <= nPoints; id += 3 {
		subset = append(subset, uncertain.ID(id))
	}
	subset = append(subset, uncertain.ID(nPoints+7))
	for _, rg := range regimes {
		for _, kind := range rg.kinds {
			if kind == KindNN {
				continue
			}
			for _, qp := range []float64{0, 0.3} {
				name := fmt.Sprintf("only/%s/%s/qp=%g", kind, rg.name, qp)
				snap := worlds[rg.nonSep].Snapshot()
				resp, err := snap.EvaluateOnly(ctx, request(rg, kind, MethodEnhanced, qp, AdaptiveAuto), subset)
				snap.Close()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got[name] = pinOf(resp.Result)
			}
		}
	}

	// The router's NN protocol over simulated shards: per-shard
	// NNCandidates, global tau, MinDist-filtered union, central
	// EvaluateNNCandidates.
	points := make([]uncertain.PointObject, 0, nPoints)
	for id := 0; id < nPoints; id++ {
		p, ok := worlds[false].Point(uncertain.ID(id))
		if !ok {
			t.Fatalf("world lost point %d", id)
		}
		points = append(points, p)
	}
	for _, shards := range []int{1, 3} {
		for _, qp := range []float64{0, 0.3} {
			req := request(regimes[0], KindNN, MethodEnhanced, qp, AdaptiveAuto)
			parts := make([][]uncertain.PointObject, shards)
			for i, p := range points {
				parts[i%shards] = append(parts[i%shards], p)
			}
			tau := math.Inf(1)
			sets := make([]NNCandidateSet, shards)
			for s, part := range parts {
				eng, err := NewEngine(part, nil, EngineOptions{})
				if err != nil {
					t.Fatal(err)
				}
				snap := eng.Snapshot()
				sets[s], err = snap.NNCandidates(ctx, req, NNCandidateOptions{})
				snap.Close()
				if err != nil {
					t.Fatal(err)
				}
				tau = math.Min(tau, sets[s].Tau)
			}
			u0 := req.Issuer.Region()
			var merged []NNCandidate
			for s, set := range sets {
				ids := make([]string, len(set.Candidates))
				for i, c := range set.Candidates {
					ids[i] = fmt.Sprint(c.ID)
					if u0.MinDist(geom.Pt(c.Loc[0], c.Loc[1])) <= tau {
						merged = append(merged, c)
					}
				}
				got[fmt.Sprintf("nnsplit/shards=%d/qp=%g/collect=%d", shards, qp, s)] = goldenPin{
					Matches:      strings.Join(ids, " "),
					Candidates:   len(set.Candidates),
					NodeAccesses: set.NodeAccesses,
					TauBits:      fmt.Sprintf("%016x", math.Float64bits(set.Tau)),
				}
			}
			res, err := EvaluateNNCandidates(ctx, req, merged, tau)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("nnsplit/shards=%d/qp=%g/refine", shards, qp)] = pinOf(res)
		}
	}

	path := filepath.Join("testdata", "golden_pr13.json")
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d pins to %s", len(got), path)
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenPin
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d pins evaluated, %d recorded", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: recorded but not evaluated", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, g, w)
		}
	}
}

// TestGoldenPinsMovedOnlyInNodeAccesses holds both golden files to the
// answers they were recorded with before PTI leaves got a capacity of
// their own (pti.MemLeafEntries): with every node_accesses field
// zeroed, each file hashes as it did then. A leaf capacity changes how
// many nodes a search reads and nothing else — no match, probability,
// candidate count, pruning counter, sample count or tau — with one
// documented exception: MethodBasic over the uncertain database draws
// every candidate's estimate from one shared stream in the order the
// PTI visits its leaves, so its Monte-Carlo outcome (matches, samples,
// early stops, below-threshold count) follows the tree's shape; of
// those pins only the candidate, pruning and refinement counts and tau
// are held.
func TestGoldenPinsMovedOnlyInNodeAccesses(t *testing.T) {
	for _, c := range []struct {
		file, sha256 string
		pins         func([]byte) (any, error)
	}{
		{"golden_pr13.json", "e12455fa40e5d7a1b4dd3c85b0a5322dfcb68a25b59d202ae6ccd137e27f49c4", func(buf []byte) (any, error) {
			var pins map[string]goldenPin
			err := json.Unmarshal(buf, &pins)
			for name, p := range pins {
				p.NodeAccesses = 0
				if strings.HasPrefix(name, "uncertain/basic/") {
					p.Matches, p.SamplesUsed, p.EarlyStopped, p.BelowThreshold = "", 0, 0, 0
				}
				pins[name] = p
			}
			return pins, err
		}},
		{"golden_smooth_issuer.json", "ed5303709389a673582653cd8e57dee01e11a25cf7613ea3e97457cadc843d96", func(buf []byte) (any, error) {
			var pins smoothPins
			err := json.Unmarshal(buf, &pins)
			for name, p := range pins.Evaluate {
				p.NodeAccesses = 0
				pins.Evaluate[name] = p
			}
			return pins, err
		}},
	} {
		buf, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		pins, err := c.pins(buf)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := json.Marshal(pins)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(canon); hex.EncodeToString(sum[:]) != c.sha256 {
			t.Errorf("%s without node_accesses hashes to %x, want %s", c.file, sum, c.sha256)
		}
	}
}
