package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/uncertain"
)

// The paper's query geometry (§6.1, Table 2): an issuer whose location
// is uncertain within a 500×500 region (u = 250), asking for
// everything within w = h = 500 of wherever it really is.
const (
	issuerHalf     = 250.0
	rangeHalf      = 500.0
	rangeThreshold = 0.5
	nnThreshold    = 0.1

	// One write op moves 24 uncertain objects and 8 points, each by a
	// step uniform in [-moveStep, moveStep]².
	batchObjects = 24
	batchPoints  = 8
	moveStep     = 100.0

	loadBatchSize = 500
)

// world is the generator's copy of the database: where every object
// and point currently is. Move batches mutate it, so at any quiescent
// moment it is exactly what the fleet should hold.
type world struct {
	rects  []geom.Rect
	points []geom.Point
	// centres is the initial point set, kept apart so query streams
	// draw issuer positions from the California cluster model without
	// depending on what the writers have moved since.
	centres []geom.Point
}

// genWorld synthesizes the repository's stand-ins for the paper's two
// datasets, Long Beach and California, under their canonical generator
// seeds. Like the paper's, the data is the same in every run; the run
// seed drives what is asked of it. (Offsetting the generator seeds too
// was tried and dropped: where the two sets' clusters happen to overlap
// decides how many objects a query meets, and that alone spread solo
// latency by 15-19% between seeds — see README.md, "Noise".)
func genWorld(nRects, nPoints int) *world {
	rcfg := dataset.LongBeachConfig()
	rcfg.N = nRects
	pcfg := dataset.CaliforniaConfig()
	pcfg.N = nPoints
	w := &world{rects: dataset.GenerateRects(rcfg), points: dataset.GeneratePoints(pcfg)}
	w.centres = append([]geom.Point(nil), w.points...)
	return w
}

func objectUpsert(id int, r geom.Rect) serve.UpdateJSON {
	return serve.UpdateJSON{Op: "upsert_object", ID: int64(id), Region: []float64{r.Lo.X, r.Lo.Y, r.Hi.X, r.Hi.Y}}
}

func pointUpsert(id int, p geom.Point) serve.UpdateJSON {
	return serve.UpdateJSON{Op: "upsert_point", ID: int64(id), X: p.X, Y: p.Y}
}

// loadBatches is the bulk load: every object, then every point, in
// batches of loadBatchSize.
func (w *world) loadBatches() [][]serve.UpdateJSON {
	all := make([]serve.UpdateJSON, 0, len(w.rects)+len(w.points))
	for i, r := range w.rects {
		all = append(all, objectUpsert(i, r))
	}
	for i, p := range w.points {
		all = append(all, pointUpsert(i, p))
	}
	var out [][]serve.UpdateJSON
	for len(all) > 0 {
		n := min(loadBatchSize, len(all))
		out = append(out, all[:n])
		all = all[n:]
	}
	return out
}

// engine builds a single in-process engine over the world's current
// state: the reference the fleet's answers must equal bit for bit.
func (w *world) engine() (*core.Engine, error) {
	objs, err := dataset.BuildUncertainObjects(w.rects, dataset.PDFUniform, uncertain.PaperCatalogProbs())
	if err != nil {
		return nil, err
	}
	return core.NewEngine(dataset.BuildPointObjects(w.points), objs, core.EngineOptions{})
}

// laneSeed derives the seed of one request stream from the run seed,
// the stream's purpose and its lane, so streams are independent of
// each other and of how many of them a phase happens to use.
func laneSeed(seed int64, label string, lane int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, lane)
	return int64(h.Sum64() >> 1)
}

// queryStream yields the requests of one client.
type queryStream struct {
	rng     *rand.Rand
	centres []geom.Point
}

func newQueryStream(w *world, seed int64, label string, lane int) *queryStream {
	return &queryStream{rng: rand.New(rand.NewSource(laneSeed(seed, label, lane))), centres: w.centres}
}

// next draws one request of the given kind ("uncertain", "points" or
// "nn"): the issuer region is centred on a draw from the point model,
// pulled inside the world so the region is never clipped.
func (s *queryStream) next(kind string) serve.RequestJSON {
	c := s.centres[s.rng.Intn(len(s.centres))]
	cx := min(max(c.X, issuerHalf), dataset.Extent-issuerHalf)
	cy := min(max(c.Y, issuerHalf), dataset.Extent-issuerHalf)
	rj := serve.RequestJSON{
		Kind:   kind,
		Issuer: serve.IssuerJSON{Region: []float64{cx - issuerHalf, cy - issuerHalf, cx + issuerHalf, cy + issuerHalf}},
		Seed:   s.rng.Int63() | 1,
	}
	if kind == "nn" {
		rj.K, rj.Threshold = 1, nnThreshold
	} else {
		rj.W, rj.H, rj.Threshold = rangeHalf, rangeHalf, rangeThreshold
	}
	return rj
}

// mover yields the move batches of one writer. Writers own disjoint id
// classes (id mod lanes == lane), so concurrent writers never touch
// the same world slot and the final state does not depend on how their
// batches interleaved at the fleet.
type mover struct {
	rng         *rand.Rand
	w           *world
	lane, lanes int
}

func newMover(w *world, seed int64, label string, lane, lanes int) *mover {
	return &mover{rng: rand.New(rand.NewSource(laneSeed(seed, label, lane))), w: w, lane: lane, lanes: lanes}
}

func (m *mover) pick(n int) int {
	return m.rng.Intn((n-m.lane+m.lanes-1)/m.lanes)*m.lanes + m.lane
}

func (m *mover) step() geom.Vec {
	return geom.Vec{X: (m.rng.Float64()*2 - 1) * moveStep, Y: (m.rng.Float64()*2 - 1) * moveStep}
}

// next draws one batch and applies it to the world.
func (m *mover) next() []serve.UpdateJSON {
	batch := make([]serve.UpdateJSON, 0, batchObjects+batchPoints)
	for range batchObjects {
		id := m.pick(len(m.w.rects))
		r := m.w.rects[id].Translate(m.step())
		// Pull the region back inside the world, keeping its size.
		r = r.Translate(geom.Vec{
			X: max(0, -r.Lo.X) + min(0, dataset.Extent-r.Hi.X),
			Y: max(0, -r.Lo.Y) + min(0, dataset.Extent-r.Hi.Y),
		})
		m.w.rects[id] = r
		batch = append(batch, objectUpsert(id, r))
	}
	for range batchPoints {
		id := m.pick(len(m.w.points))
		d := m.step()
		p := m.w.points[id]
		p = geom.Pt(min(max(p.X+d.X, 0), dataset.Extent), min(max(p.Y+d.Y, 0), dataset.Extent))
		m.w.points[id] = p
		batch = append(batch, pointUpsert(id, p))
	}
	return batch
}
