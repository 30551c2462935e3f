package shard

import (
	"cmp"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/serve"
)

// Router fans queries and updates across a tile-partitioned engine
// fleet and merges the shard responses back into the single-server
// wire format. Query merges are bit-exact against a single engine
// holding the union of the data (see docs/sharding.md): range kinds
// are a set union with replica dedup (replicas compute bit-identical
// probabilities), NN runs the two-round cross-shard tau-merge protocol
// with the final refinement at the router.
//
// The router is the fleet's ingest path, and it keeps no record of
// where an id is: it routes each update by the geometry in it alone
// (split), so a restarted or second router routes as the first did.
type Router struct {
	tiles      *TileMap
	shards     []*Client
	log        *slog.Logger
	m          *routerMetrics
	maxSamples int64

	// ingestMu serializes ApplyUpdates end to end, so every shard
	// receives the router's batches in one order: of two concurrent
	// writes of one id, the later everywhere is the one that stays.
	ingestMu sync.Mutex
	mu       sync.Mutex // guards subs
	subs     map[int64]*routerSub
	seq      atomic.Uint64
	subID    atomic.Int64

	// feeds holds each shard's open delta feed (feed.go), named on the
	// shard by token and a sequence number; readers counts the feeds'
	// reader goroutines; closed refuses new feeds once Close has begun.
	feeds   []feedSlot
	token   string
	feedSeq atomic.Int64
	readers sync.WaitGroup
	closed  atomic.Bool
}

// feedSlot is one shard's open feed; mu serializes opening it.
type feedSlot struct {
	mu sync.Mutex
	f  *feed
}

// Config parameterizes NewRouter.
type Config struct {
	// Logger receives router logs (slog.Default() when nil).
	Logger *slog.Logger
	// MaxSamples is the evaluation sample budget applied to NN
	// refinement at the router (0 = serve.DefaultNNBudget, matching a
	// standalone ildq-serve).
	MaxSamples int64
}

// NewRouter builds a router over the fleet. clients[i] must serve the
// tiles the map assigns to shard i.
func NewRouter(tiles *TileMap, clients []*Client, cfg Config) (*Router, error) {
	if tiles == nil {
		return nil, errors.New("shard: router needs a tile map")
	}
	if len(clients) != tiles.NumShards() {
		return nil, fmt.Errorf("shard: tile map wants %d shards, got %d clients", tiles.NumShards(), len(clients))
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	r := &Router{
		tiles:  tiles,
		shards: clients,
		log:    log,
		m:      newRouterMetrics(),
		subs:   make(map[int64]*routerSub),
		feeds:  make([]feedSlot, len(clients)),
		token:  rand.Text(),
	}
	r.maxSamples = cfg.MaxSamples
	if r.maxSamples == 0 {
		r.maxSamples = serve.DefaultNNBudget
	}
	for i, c := range clients {
		id := c.ID
		if id == "" {
			id = fmt.Sprint(i)
			c.ID = id
		}
		retries := r.m.retries.With(id)
		c.OnRetry = func() { retries.Inc() }
		c.OnReply = func(op string, bytes int) { r.m.replyBytes.With(op).Observe(float64(bytes)) }
	}
	return r, nil
}

// scatter runs fn against every target shard concurrently and returns
// the per-target error slice (nil entries succeeded).
func (r *Router) scatter(targets []int, fn func(shard int) error) []error {
	r.m.fanout.Observe(float64(len(targets)))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, s := range targets {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			r.m.requests.With(r.shards[s].ID).Inc()
			errs[i] = fn(s)
		}(i, s)
	}
	wg.Wait()
	return errs
}

// missing folds scatter errors into the fail-open partial marker: the
// list of shard ids that never produced a response.
func (r *Router) missing(targets []int, errs []error, op string) []string {
	var miss []string
	for i, err := range errs {
		if err == nil {
			continue
		}
		id := r.shards[targets[i]].ID
		r.m.failures.With(id).Inc()
		r.log.Warn("shard unavailable", "op", op, "shard", id, "err", err)
		miss = append(miss, id)
	}
	if miss != nil {
		r.m.partial.Inc()
	}
	return miss
}

// answer is a merged one-shot answer. For a range kind resp holds no
// matches: they are relayed from replies, the shards' replies, which
// stay in their read buffers until bufs is released. For NN, replies is
// nil and nn is the answer's match list, which the router refined
// itself.
type answer struct {
	resp    serve.EvaluateResponse
	nn      []core.Match
	replies []serve.EvaluateReply
	bufs    replyBuffers
	stop    func() // the merge stopwatch of a range kind
}

// appendTo appends the answer as the body of POST /v1/evaluate: for a
// range kind, the shards' match lists merged as the shards' bytes
// (serve.AppendRelayedEvaluateResponse).
func (a *answer) appendTo(dst []byte) ([]byte, error) {
	if a.replies == nil {
		return serve.AppendEngineEvaluateResponse(dst, &a.resp, a.nn)
	}
	defer a.stop()
	return serve.AppendRelayedEvaluateResponse(dst, &a.resp, a.replies)
}

// replyBuffers are the pooled buffers a request reads its shards'
// replies into, one per target shard, and relays them from.
type replyBuffers []*[]byte

func getReplyBuffers(n int) replyBuffers {
	bufs := make(replyBuffers, n)
	for i := range bufs {
		bufs[i] = serve.GetBuffer()
	}
	return bufs
}

// release hands the buffers back; nothing read from them is read after.
func (bufs replyBuffers) release() {
	for _, buf := range bufs {
		serve.PutBuffer(buf, *buf)
	}
}

// evaluate routes one one-shot request: compute the probe/guard region,
// fan to the intersecting shards, and gather their replies for a merge.
func (r *Router) evaluate(ctx context.Context, rj serve.RequestJSON) (answer, error) {
	req, err := rj.ToRequest()
	if err != nil {
		return answer{}, err
	}
	if req.Kind == core.KindNN {
		return r.evaluateNN(ctx, rj, req)
	}
	guard, err := req.GuardRegion()
	if err != nil {
		return answer{}, err
	}
	targets := r.tiles.ShardsOverlapping(guard)
	a := answer{
		resp:    serve.EvaluateResponse{Kind: req.Kind.String()},
		replies: make([]serve.EvaluateReply, len(targets)),
		bufs:    getReplyBuffers(len(targets)),
		stop:    r.m.mergeTimer("evaluate"),
	}
	errs := r.scatter(targets, func(s int) error {
		idx := sort.SearchInts(targets, s)
		var err error
		a.replies[idx], err = r.shards[s].evaluateReply(ctx, rj, a.bufs[idx])
		return err
	})
	// Keep the replies that came, in shard order: the merge keeps the
	// first of a replica's copies.
	kept := a.replies[:0]
	for i, rep := range a.replies {
		if errs[i] != nil {
			continue
		}
		a.resp.Version = max(a.resp.Version, rep.Version)
		addCost(&a.resp.Cost, rep.Cost)
		kept = append(kept, rep)
	}
	a.replies = kept
	a.resp.MissingShards = r.missing(targets, errs, "evaluate")
	a.resp.Partial = a.resp.MissingShards != nil
	return a, nil
}

// mergeSorted merges lists that each arrive sorted under compare into one
// sorted list, keeping one copy of elements that compare equal and
// dropping those keep (when not nil) rejects. A lone list that needs
// no filtering is passed through as it is.
func mergeSorted[T any](lists [][]T, compare func(a, b T) int, keep func(T) bool) []T {
	lists = slices.DeleteFunc(lists, func(l []T) bool { return len(l) == 0 })
	if len(lists) == 1 && keep == nil {
		return lists[0]
	}
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]T, 0, n)
	for len(lists) > 0 {
		lo := 0
		for l := 1; l < len(lists); l++ {
			if compare(lists[l][0], lists[lo][0]) < 0 {
				lo = l
			}
		}
		c := lists[lo][0]
		if (len(out) == 0 || compare(out[len(out)-1], c) != 0) && (keep == nil || keep(c)) {
			out = append(out, c)
		}
		if lists[lo] = lists[lo][1:]; len(lists[lo]) == 0 {
			lists = slices.Delete(lists, lo, lo+1)
		}
	}
	return out
}

func addCost(dst *serve.CostJSON, c serve.CostJSON) {
	dst.Candidates += c.Candidates
	dst.Refined += c.Refined
	dst.SamplesUsed += c.SamplesUsed
	dst.EarlyStopped += c.EarlyStopped
	dst.NodeAccesses += c.NodeAccesses
	dst.DurationMS = max(dst.DurationMS, c.DurationMS)
}

// nnGather is the outcome of the NN candidate collection across the
// fleet: what a single engine's collectNN would have produced, plus
// who was asked.
type nnGather struct {
	tau          float64
	cands        []core.NNCandidate // id-sorted
	nodeAccesses int64
	version      uint64
	rounds       int
	asked        []int   // shards contacted, in the order asked
	errs         []error // per asked shard; nil entries answered
}

// gatherNN runs the cross-shard tau-merge in two rounds, asking only
// the shards the tau ball can reach. Round 1 asks the home shards —
// those whose tiles overlap the issuer region u0 — for their
// candidates under their local tau, and takes tau1 = the smallest.
// Round 2 asks the shards whose tiles overlap u0 expanded by tau1 and
// that were not asked yet, with tau1 as the collection bound. (When no
// home shard answered or none holds a point, tau1 is +Inf and round 2
// asks everyone else, unbounded.) The global tau is the minimum over
// all responders; a truncated tally is re-collected under it, and
// the union is filtered to MinDist <= tau where a list can hold more.
//
// Because every point lives on exactly one shard, min-of-local-taus
// over the whole fleet equals the single-engine tau and the filtered
// union equals the single-engine candidate set. Skipping a shard keeps
// both: a shard not asked owns only tiles outside the tau1-expanded
// box (tileCoord clamps out-of-world points and out-of-world box edges
// into the same edge tiles), so every point it holds has MaxDist >=
// MinDist > tau1 >= tau — it can neither be a candidate nor lower the
// minimum. The box is expanded by the float after tau1 so that the
// strict inequality survives rounding: a point beyond the rounded edge
// Hi+e lies beyond the real one, its computed axis gap is therefore at
// least e, and Hypot never returns less than its larger argument.
//
// A shard's reply is decoded into bufs.lists[shard] (and that array is
// kept when the reply outgrew it), so the gathered candidates live there
// until the caller releases bufs.
func (r *Router) gatherNN(ctx context.Context, rj serve.RequestJSON, u0 geom.Rect, bufs *nnBuffers) (nnGather, error) {
	// Indexed by shard number, whichever round asked: the reply, and
	// the tau bound it was collected under.
	resps := make([]core.NNCandidateSet, len(r.shards))
	bounds := make([]float64, len(r.shards))
	collect := func(s int, creq serve.NNCandidatesRequest) (core.NNCandidateSet, error) {
		resp, err := r.shards[s].NNCandidates(ctx, creq, bufs.lists[s])
		if cap(resp.Candidates) > cap(bufs.lists[s]) {
			bufs.lists[s] = resp.Candidates
		}
		return resp, err
	}
	var g nnGather
	ask := func(targets []int, creq serve.NNCandidatesRequest) {
		errs := r.scatter(targets, func(s int) error {
			resp, err := collect(s, creq)
			resps[s], bounds[s] = resp, creq.TauBound
			return err
		})
		g.asked = append(g.asked, targets...)
		g.errs = append(g.errs, errs...)
		g.rounds++
	}
	// tauOf is the smallest local tau among the shards that answered.
	tauOf := func() float64 {
		tau := math.Inf(1)
		for i, s := range g.asked {
			if g.errs[i] == nil {
				tau = math.Min(tau, resps[s].Tau)
			}
		}
		return tau
	}

	creq := serve.NNCandidatesRequest{Request: rj}
	ask(r.tiles.ShardsOverlapping(u0), creq)
	var reach []int
	if tau1 := tauOf(); math.IsInf(tau1, 1) {
		reach = r.tiles.AllShards()
	} else {
		e := math.Nextafter(tau1, math.Inf(1))
		reach = r.tiles.ShardsOverlapping(u0.Expand(e, e))
		creq.TauBound = tau1
	}
	if rest := slices.DeleteFunc(reach, func(s int) bool { return slices.Contains(g.asked, s) }); len(rest) > 0 {
		ask(rest, creq)
	}
	if !slices.ContainsFunc(g.errs, func(err error) bool { return err == nil }) {
		return g, fmt.Errorf("shard: nn fan-out: no shard responded (first: %w)", firstErr(g.errs))
	}
	g.tau = tauOf()

	// A truncated tally may have dropped candidates inside the final
	// tau ball; re-collect under the tightened bound.
	creq.TauBound = g.tau
	for i, s := range g.asked {
		if g.errs[i] != nil || !resps[s].Truncated {
			continue
		}
		r.m.requests.With(r.shards[s].ID).Inc()
		resp, err := collect(s, creq)
		if err == nil && resp.Truncated {
			err = fmt.Errorf("shard: shard %s candidate tally still truncated at tau=%g", r.shards[s].ID, g.tau)
		}
		resps[s], bounds[s], g.errs[i] = resp, creq.TauBound, err
	}

	// Merge the shards' id-sorted lists, dropping what a looser local
	// tau let through. A shard collected under the radius its local tau
	// and its bound give (core.NNCandidateOptions.Radius); a list whose
	// radius is within the global tau has nothing to drop, so when every
	// list's is, the filter is skipped and a lone list is taken as
	// decoded. A bound of 0 is no bound: at a global tau of 0 a round-2
	// shard collected under its own tau, and its list is filtered. Equal
	// ids meet at the heads — only a point caught mid-move between two
	// shards produces them — and one copy is kept.
	lists := make([][]core.NNCandidate, 0, len(g.asked))
	var keep func(core.NNCandidate) bool
	for i, s := range g.asked {
		if g.errs[i] != nil {
			continue
		}
		g.version = max(g.version, resps[s].Version)
		g.nodeAccesses += resps[s].NodeAccesses
		lists = append(lists, resps[s].Candidates)
		radius := core.NNCandidateOptions{TauBound: bounds[s]}.Radius(resps[s].Tau)
		if len(resps[s].Candidates) > 0 && !(radius <= g.tau) {
			keep = func(c core.NNCandidate) bool { return u0.MinDist(geom.Pt(c.Loc[0], c.Loc[1])) <= g.tau }
		}
	}
	g.cands = mergeSorted(lists, func(a, b core.NNCandidate) int { return cmp.Compare(a.ID, b.ID) }, keep)
	return g, nil
}

// evaluateNN answers a one-shot NN request: gather the fleet's
// candidate set, then refine it at the router. Refinement is a pure
// function of the request seed and the id-sorted candidates, so the
// qualifying tallies are Float64bits-identical to a single engine's.
// A shard the tau ball cannot reach is not asked, and so cannot make
// the answer partial.
func (r *Router) evaluateNN(ctx context.Context, rj serve.RequestJSON, req core.Request) (answer, error) {
	sw := r.m.mergeTimer("nn")
	defer sw()

	bufs := getNNBuffers(len(r.shards))
	defer bufs.release()
	g, err := r.gatherNN(ctx, rj, req.Issuer.Region(), bufs)
	r.m.nnRounds.Observe(float64(g.rounds))
	r.m.nnAsked.Observe(float64(len(g.asked)))
	if err != nil {
		return answer{}, err
	}
	if req.Options.MaxSamples == 0 {
		req.Options.MaxSamples = r.maxSamples
	}
	res, err := core.EvaluateNNCandidates(ctx, req, g.cands, g.tau)
	if err != nil {
		return answer{}, err
	}
	out := serve.EvaluateResponse{
		Kind:    req.Kind.String(),
		Version: g.version,
		Cost:    serve.ToCostJSON(res.Cost),
	}
	out.Cost.NodeAccesses += g.nodeAccesses
	out.MissingShards = r.missing(g.asked, g.errs, "nn")
	out.Partial = out.MissingShards != nil
	return answer{resp: out, nn: res.Matches}, nil
}

// nnBuffers holds the arrays one NN request decodes its shards'
// candidate lists into, one per shard, pooled across requests: a
// reply's candidates (24 B each, ~1 300 at nn_ro's shape) were half of
// what the router allocated. Nothing of a request's answer refers to
// them once its refinement has returned.
type nnBuffers struct {
	lists [][]core.NNCandidate // by shard
}

var nnBufferPool = sync.Pool{New: func() any { return new(nnBuffers) }}

// maxPooledNNCandidates caps the candidates pooled buffers keep, so a
// rare huge request does not pin its arrays for every later one.
const maxPooledNNCandidates = 1 << 16

func getNNBuffers(shards int) *nnBuffers {
	b := nnBufferPool.Get().(*nnBuffers)
	if len(b.lists) < shards {
		b.lists = append(b.lists, make([][]core.NNCandidate, shards-len(b.lists))...)
	}
	return b
}

func (b *nnBuffers) release() {
	n := 0
	for _, l := range b.lists {
		n += cap(l)
	}
	if n <= maxPooledNNCandidates {
		nnBufferPool.Put(b)
	}
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ApplyUpdates splits one update batch by geometry (split) and fans
// the per-shard sub-batches out concurrently, so every shard that
// acknowledges holds no stale copy of the batch's ids past the batch
// boundary. The response carries the per-shard version vector of every
// shard; counts are physical: a replicated upsert counts once per
// replica, and an eviction delete counts in applied where it removed a
// copy and in missing where the shard held none.
func (r *Router) ApplyUpdates(ctx context.Context, body serve.UpdatesRequest) (serve.UpdatesResponse, error) {
	// Validate the whole batch before routing any of it: a rejected
	// batch reaches no shard. Validate is ToUpdate's own check, short of
	// the U-catalog the shard builds.
	for i, u := range body.Updates {
		if err := u.Validate(); err != nil {
			return serve.UpdatesResponse{}, &core.RequestError{Field: "updates", Err: fmt.Errorf("update %d: %w", i, err)}
		}
	}

	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()

	batches := r.split(body.Updates)

	var targets []int
	for s, b := range batches {
		if len(b) > 0 {
			targets = append(targets, s)
		}
	}
	out := serve.UpdatesResponse{
		Seq:      r.seq.Add(1),
		Versions: make(map[string]uint64),
	}
	resps := make([]serve.UpdatesResponse, len(r.shards))
	errs := r.scatter(targets, func(s int) error {
		r.m.updates.With(r.shards[s].ID).Add(int64(len(batches[s])))
		resp, err := r.shards[s].Updates(ctx, serve.UpdatesRequest{Updates: batches[s]})
		resps[s] = resp
		return err
	})
	for i, s := range targets {
		if errs[i] != nil {
			continue
		}
		resp := resps[s]
		out.Applied += resp.Applied
		out.Missing += resp.Missing
		out.Reevaluated += resp.Reevaluated
		out.Skipped += resp.Skipped
		out.Entered += resp.Entered
		out.Left += resp.Left
		out.Changed += resp.Changed
		out.Versions[r.shards[s].ID] = resp.Version
		out.Version = max(out.Version, resp.Version)
		for _, e := range resp.Errors {
			out.Errors = append(out.Errors, fmt.Sprintf("shard %s: %s", r.shards[s].ID, e))
		}
	}
	out.MissingShards = r.missing(targets, errs, "updates")
	out.Partial = out.MissingShards != nil
	return out, nil
}

// split routes a validated batch into one sub-batch per shard by the
// tile map alone. An upsert goes to the shards its point or region
// overlaps and is a delete of its id on every other shard: a no-op
// where that shard holds no copy, the eviction of a stale one where it
// does. A delete goes to every shard. Each sub-batch keeps the batch's
// order, so each shard ends it holding what a single engine holds of
// its tiles, wherever its copies were before.
func (r *Router) split(updates []serve.UpdateJSON) [][]serve.UpdateJSON {
	batches := make([][]serve.UpdateJSON, len(r.shards))
	for s := range batches {
		batches[s] = make([]serve.UpdateJSON, 0, len(updates))
	}
	var home [1]int
	for _, u := range updates {
		owners, evict := []int(nil), ""
		switch u.Op {
		case "upsert_point":
			home[0] = r.tiles.ShardOf(geom.Pt(u.X, u.Y))
			owners, evict = home[:], "delete_point"
		case "upsert_object":
			region, _ := serve.ToRect(u.Region) // validated by ApplyUpdates
			owners, evict = r.tiles.ShardsOverlapping(region), "delete_object"
		}
		for s := range batches {
			if owners == nil || slices.Contains(owners, s) {
				batches[s] = append(batches[s], u)
			} else {
				batches[s] = append(batches[s], serve.UpdateJSON{Op: evict, ID: u.ID})
			}
		}
	}
	return batches
}

// registration is a merged registration snapshot: resp holds no
// snapshot, which is relayed from replies, the accepting shards'
// replies, which stay in their read buffers until bufs is released.
type registration struct {
	resp    serve.RegisterResponse
	replies []serve.RegisterReply
	bufs    replyBuffers
}

// appendTo appends the registration as the body of POST /v1/queries:
// the shards' snapshots merged as the shards' bytes
// (serve.AppendRelayedRegisterResponse).
func (g *registration) appendTo(dst []byte) ([]byte, error) {
	return serve.AppendRelayedRegisterResponse(dst, &g.resp, g.replies)
}

// register fans a standing range query to the shards its guard region
// intersects, onto the router's delta feed on each (feed.go), and
// returns the merged registration snapshot under a router-assigned id,
// marked partial when shards are missing from it. Standing NN queries are rejected:
// their guard is unbounded until an evaluation fixes tau, and the
// cross-shard tau guard is not maintained incrementally — issue one-shot
// NN requests through the router instead.
func (r *Router) register(ctx context.Context, rj serve.RequestJSON) (registration, error) {
	req, err := rj.ToRequest()
	if err != nil {
		return registration{}, err
	}
	if req.Kind == core.KindNN {
		return registration{}, &core.RequestError{Field: "kind",
			Err: errors.New("standing nn queries are not routable across shards; use one-shot /v1/evaluate")}
	}
	guard, err := req.GuardRegion()
	if err != nil {
		return registration{}, err
	}
	targets := r.tiles.ShardsOverlapping(guard)
	replies := make([]serve.RegisterReply, len(targets))
	bufs := getReplyBuffers(len(targets))
	feeds := make([]*feed, len(targets))
	feedErrs := make([]error, len(targets))
	errs := r.scatter(targets, func(s int) error {
		idx := sort.SearchInts(targets, s)
		for retried := false; ; retried = true {
			f, err := r.acquireFeed(ctx, s)
			if err != nil {
				feedErrs[idx] = err
				return err
			}
			rep, err := r.shards[s].Register(ctx, rj, f.token, bufs[idx])
			if err == nil {
				replies[idx], feeds[idx] = rep, f
				return nil
			}
			f.release()
			// A 409 says the shard has no such open feed — it restarted
			// behind its URL while the router's connection to the old
			// process stayed up, or the feed ended during the
			// registration — and kept no registration: drop the feed and
			// register once more, onto a fresh one.
			if retried || !hasStatus(err, http.StatusConflict) {
				return err
			}
			r.dropFeed(f)
		}
	})
	sub := newRouterSub(r.subID.Add(1), req.Kind.String())
	for i, rep := range replies {
		if errs[i] == nil {
			sub.members = append(sub.members, subMember{shard: targets[i], subID: rep.ID})
		}
	}
	miss := r.missing(targets, errs, "register")
	if len(sub.members) == 0 {
		bufs.release()
		return registration{}, fmt.Errorf("shard: register: no shard accepted (first: %w)", firstErr(errs))
	}
	// Every member counts toward the close before any can deliver one; a
	// shard whose feed would not open is a member lost at birth, so the
	// stream says its replay is not the fleet's answer.
	sub.open = len(sub.members)
	for i, f := range feeds {
		if f != nil {
			f.attach(replies[i].ID, sub)
		} else if feedErrs[i] != nil {
			r.loseMember(sub, targets[i], feedErrs[i])
		}
	}
	r.mu.Lock()
	r.subs[sub.id] = sub
	r.mu.Unlock()
	// A shard that did not reply left its snapshot empty, which the
	// merge passes over.
	return registration{
		resp:    serve.RegisterResponse{ID: sub.id, Kind: sub.kind, Partial: miss != nil, MissingShards: miss},
		replies: replies,
		bufs:    bufs,
	}, nil
}

// Subscription looks up a router standing query.
func (r *Router) Subscription(id int64) (*routerSub, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sub, ok := r.subs[id]
	return sub, ok
}

// errNoStandingQuery reports a router standing query id the router does
// not hold.
var errNoStandingQuery = errors.New("no standing query")

// Deregister removes a router standing query from every member shard. It
// fails with errNoStandingQuery for an id the router does not hold, and
// with the first member's error when a member shard could not be
// reached; the router forgets the query either way.
func (r *Router) Deregister(ctx context.Context, id int64) error {
	r.mu.Lock()
	sub, ok := r.subs[id]
	if ok {
		delete(r.subs, id)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("shard: %w %d", errNoStandingQuery, id)
	}
	var firstErr error
	for _, m := range sub.members {
		if err := r.shards[m.shard].Deregister(ctx, m.subID); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ShardHealth is one shard's entry in the router health report.
type ShardHealth struct {
	Status  string `json:"status"`
	Version uint64 `json:"version,omitempty"`
	Tiles   string `json:"tiles,omitempty"`
	Error   string `json:"error,omitempty"`
}

// HealthReport is the router /healthz body: per-shard reachability,
// the engine version vector, and tile-spec agreement (a shard serving
// a different tile map than the router is flagged, not silently
// queried).
type HealthReport struct {
	Status string                 `json:"status"` // ok | degraded
	Tiles  string                 `json:"tiles"`
	Shards map[string]ShardHealth `json:"shards"`
}

// Health fans /healthz to the fleet.
func (r *Router) Health(ctx context.Context) HealthReport {
	spec := r.tiles.Spec()
	rep := HealthReport{Status: "ok", Tiles: spec, Shards: make(map[string]ShardHealth, len(r.shards))}
	var mu sync.Mutex
	r.scatter(r.tiles.AllShards(), func(s int) error {
		h, err := r.shards[s].Healthz(ctx)
		sh := ShardHealth{Status: "ok", Version: h.Version, Tiles: h.Tiles}
		if err != nil {
			sh = ShardHealth{Status: "unreachable", Error: err.Error()}
		} else if h.Tiles != "" && h.Tiles != spec {
			sh.Status = "tiles_mismatch"
		}
		mu.Lock()
		if sh.Status != "ok" {
			rep.Status = "degraded"
		}
		rep.Shards[r.shards[s].ID] = sh
		mu.Unlock()
		return err
	})
	return rep
}
