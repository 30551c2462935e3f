package shard

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"repro/internal/serve"
)

// The router takes its standing queries' deltas from each shard on one
// delta feed (serve's feed.go): a stream it opens before its first
// registration there, onto which every registration it makes on that
// shard is attached. The shard writes a whole monitor pass per write,
// each frame naming its shard-local query ("id: <n>"); one reader per
// feed hands each frame, relayed with its shard tag, to the router
// query it belongs to, and never waits on a subscriber: every router
// query buffers its frames (bounded) until its subscriber writes them.

// ErrFeedFrame reports a delta feed that broke its framing: a line that
// is not "id: <n>", "event: close", "data: …" or blank, in that order.
// The feed is dropped with every router query that has a member on it.
var ErrFeedFrame = errors.New("malformed delta feed frame")

// errFeedEnded reports a feed stream that ended; a live feed never does.
var errFeedEnded = errors.New("delta feed ended")

// errRouterClosed refuses a feed to a router that Close has hung up.
var errRouterClosed = errors.New("router closed")

// maxBuffered bounds the frame bytes one router query holds for its
// subscriber. A subscriber that falls this far behind — or a query no
// one streams — loses its stream (an error event; re-register), so a
// slow reader costs its own stream, never the feed.
const maxBuffered = 4 << 20

// feed is one open delta feed: the router's deltas from one shard.
type feed struct {
	r     *Router
	shard int
	token string
	// cancel ends the feed's connection (Router.Close).
	cancel context.CancelFunc

	mu   sync.Mutex
	cond sync.Cond // broadcast when pending falls or the feed is lost
	// queries maps the shard's query ids to the router queries they are
	// members of; a member's entry goes with its close frame.
	queries map[int64]*routerSub
	// pending counts registrations in flight on the feed. A frame for an
	// id the router has not mapped yet waits for them: the shard can send
	// a query's registration snapshot before the router has read the
	// registration's reply.
	pending int
	lost    error // why the feed ended; nil while it is open
}

// acquireFeed returns shard s's open feed, opening one if there is none,
// with a registration counted in flight on it; attach or release ends
// that registration. ctx bounds the open, not the feed.
func (r *Router) acquireFeed(ctx context.Context, s int) (*feed, error) {
	slot := &r.feeds[s]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if r.closed.Load() {
		return nil, fmt.Errorf("shard %s: feed: %w", r.shards[s].ID, errRouterClosed)
	}
	if f := slot.f; f != nil {
		f.mu.Lock()
		open := f.lost == nil
		if open {
			f.pending++
		}
		f.mu.Unlock()
		if open {
			return f, nil
		}
	}
	f := &feed{r: r, shard: s, token: fmt.Sprintf("%s.%d", r.token, r.feedSeq.Add(1)), queries: make(map[int64]*routerSub), pending: 1}
	f.cond.L = &f.mu
	// The feed lives until it breaks, whatever ctx does; ctx only
	// bounds the wait for it to open.
	life, cancel := context.WithCancel(context.Background())
	stop := context.AfterFunc(ctx, cancel)
	body, err := r.shards[s].OpenFeed(life, f.token)
	if !stop() || err != nil {
		cancel()
		if err == nil {
			body.Close()
			err = fmt.Errorf("shard %s: feed: %w", r.shards[s].ID, ctx.Err())
		}
		return nil, err
	}
	f.cancel = cancel
	slot.f = f
	r.readers.Add(1)
	go func() {
		defer r.readers.Done()
		err := f.read(body)
		body.Close()
		cancel()
		r.loseFeed(f, err)
	}()
	return f, nil
}

// dropFeed hangs up f and takes it out of its shard's slot, so the next
// acquireFeed opens a fresh feed; f's reader then loses it (loseFeed).
func (r *Router) dropFeed(f *feed) {
	slot := &r.feeds[f.shard]
	slot.mu.Lock()
	if slot.f == f {
		slot.f = nil
	}
	slot.mu.Unlock()
	f.cancel()
}

// Close hangs up every open delta feed and returns once their readers
// have exited; the shards unregister the standing queries registered
// onto them, and their subscriber streams end with an error event. A
// later registration opens no feed, so no shard accepts it.
func (r *Router) Close() {
	r.closed.Store(true)
	for i := range r.feeds {
		slot := &r.feeds[i]
		slot.mu.Lock()
		if slot.f != nil {
			slot.f.cancel()
		}
		slot.mu.Unlock()
	}
	r.readers.Wait()
}

// attach maps the shard's query id onto sub and ends the registration
// acquireFeed counted; if the feed has been lost meanwhile, sub's
// member is lost with it.
func (f *feed) attach(id int64, sub *routerSub) {
	f.mu.Lock()
	f.pending--
	f.cond.Broadcast()
	lost := f.lost
	if lost == nil {
		f.queries[id] = sub
	}
	f.mu.Unlock()
	if lost != nil {
		f.r.loseMember(sub, f.shard, lost)
	}
}

// release ends a registration acquireFeed counted that attached nothing.
func (f *feed) release() {
	f.mu.Lock()
	f.pending--
	f.cond.Broadcast()
	f.mu.Unlock()
}

// lookup returns the router query the shard's query id belongs to,
// waiting while a registration that may map it is in flight; nil means
// the frame is addressed to no live router query and is dropped.
func (f *feed) lookup(id int64) *routerSub {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if sub, ok := f.queries[id]; ok {
			return sub
		}
		if f.pending == 0 || f.lost != nil {
			return nil
		}
		f.cond.Wait()
	}
}

// forget removes the shard's query id from the feed.
func (f *feed) forget(id int64) {
	f.mu.Lock()
	delete(f.queries, id)
	f.mu.Unlock()
}

// read follows the feed, handing each frame to the router query it
// names, until the stream fails; it returns why.
func (f *feed) read(body io.Reader) error {
	shardID := f.r.shards[f.shard].ID
	return readFeed(body, func(id int64, closing bool, data []byte) {
		sub := f.lookup(id)
		switch {
		case sub == nil:
		case closing:
			f.forget(id)
			sub.closeMember()
		default:
			if err := sub.push(data, shardID, f.r.m); err != nil {
				f.forget(id) // nothing after the hole is forwarded
				f.r.m.framesDropped.With(shardID).Inc()
				f.r.log.Warn("shard delta frame unusable; ending subscriber stream", "shard", shardID, "query", sub.id, "err", err)
				sub.fail(fmt.Sprintf("shard %s: %v", shardID, err))
			}
		}
	})
}

// readFeed parses a feed stream, calling frame for each frame in order,
// until the stream fails: it returns ErrFeedFrame for broken framing or
// a line too long to scan, the read's error, or errFeedEnded.
func readFeed(body io.Reader, frame func(id int64, closing bool, data []byte)) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), serve.MaxBodyBytes)
	const (
		wantID = iota
		wantData
		wantCloseData
		wantBlank
	)
	state, id := wantID, int64(0)
	for sc.Scan() {
		line := sc.Bytes()
		var ok bool
		switch state {
		case wantID:
			if len(line) == 0 {
				continue
			}
			var rest []byte
			if rest, ok = bytes.CutPrefix(line, []byte("id: ")); ok {
				var err error
				id, err = strconv.ParseInt(string(rest), 10, 64)
				ok = err == nil
			}
			state = wantData
		case wantData, wantCloseData:
			if state == wantData && string(line) == "event: close" {
				state, ok = wantCloseData, true
				break
			}
			var data []byte
			if data, ok = bytes.CutPrefix(line, []byte("data: ")); ok {
				frame(id, state == wantCloseData, data)
			}
			state = wantBlank
		case wantBlank:
			ok = len(line) == 0
			state = wantID
		}
		if !ok {
			return fmt.Errorf("%w: %.64q", ErrFeedFrame, line)
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return fmt.Errorf("%w: %w", ErrFeedFrame, err)
		}
		return err
	}
	return errFeedEnded
}

// loseFeed drops a feed that ended: every router query with a member on
// it loses its stream, and the next registration opens a fresh feed.
func (r *Router) loseFeed(f *feed, err error) {
	id := r.shards[f.shard].ID
	f.mu.Lock()
	f.lost = fmt.Errorf("shard %s: delta feed: %w", id, err)
	queries := f.queries
	f.queries = nil
	f.cond.Broadcast()
	f.mu.Unlock()

	slot := &r.feeds[f.shard]
	slot.mu.Lock()
	if slot.f == f {
		slot.f = nil
	}
	slot.mu.Unlock()

	r.m.feedLost.With(id).Inc()
	if errors.Is(err, ErrFeedFrame) {
		r.m.framesDropped.With(id).Inc()
	}
	if len(queries) > 0 {
		r.log.Warn("shard delta feed lost; ending its subscriber streams", "shard", id, "queries", len(queries), "err", err)
	}
	for _, sub := range queries {
		r.loseMember(sub, f.shard, f.lost)
	}
}

// loseMember ends sub's stream because its member on shard s is gone.
func (r *Router) loseMember(sub *routerSub, s int, err error) {
	r.m.membersLost.With(r.shards[s].ID).Inc()
	sub.fail(err.Error())
}

// routerSub is one standing query fanned to member shards, with the
// frames its feeds delivered that its subscriber has not yet been sent.
type routerSub struct {
	id      int64
	kind    string
	members []subMember

	mu sync.Mutex
	// buf holds the frames not yet written, as server-sent events;
	// spare is the buffer the last write returned.
	buf, spare []byte
	// open counts the members whose close frame has not arrived.
	open int
	// end is the event that ends the stream — close once every member
	// has closed, error once a member is lost — and nothing is buffered
	// after it.
	end       []byte
	streaming bool          // a subscriber is connected
	wake      chan struct{} // capacity 1: buf or end changed
}

type subMember struct {
	shard int   // index into Router.shards
	subID int64 // the shard-local standing query id
}

func newRouterSub(id int64, kind string) *routerSub {
	return &routerSub{id: id, kind: kind, wake: make(chan struct{}, 1)}
}

func (s *routerSub) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// push buffers one shard frame, relayed with the shard's tag. A frame the
// relay refuses is returned as an error and buffers nothing; one that
// would overflow the buffer ends the stream instead.
func (s *routerSub) push(data []byte, shardID string, m *routerMetrics) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end != nil {
		return nil
	}
	mark := len(s.buf)
	out, err := serve.AppendRelayedDelta(append(s.buf, "data: "...), data, shardID)
	if err != nil {
		s.buf = s.buf[:mark]
		return err
	}
	if mark > 0 && len(out)+2 > maxBuffered {
		s.buf = out[:mark]
		m.overflow.Inc()
		s.endLocked(serve.AppendSSEError(nil, "subscriber fell behind the delta stream, re-register the query"))
		return nil
	}
	s.buf = append(out, "\n\n"...)
	s.signal()
	return nil
}

// closeMember notes a member's close frame; the last one ends the stream.
func (s *routerSub) closeMember() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.open--; s.open == 0 {
		s.endLocked([]byte("event: close\ndata: {}\n\n"))
	}
}

// fail ends the stream with an error event: replay past this point
// would not be the fleet's answer.
func (s *routerSub) fail(msg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.endLocked(serve.AppendSSEError(nil, "delta stream broken, re-register the query: "+msg))
}

func (s *routerSub) endLocked(event []byte) {
	if s.end == nil {
		s.end = event
		s.signal()
	}
}

// claim makes the caller the query's one subscriber, reporting false if
// another is connected.
func (s *routerSub) claim() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streaming {
		return false
	}
	s.streaming = true
	return true
}

// take waits until the stream has frames or has ended, or ctx ends,
// and returns the frames to write and the ending event, if any. The
// caller hands the frames back with done once they are written.
func (s *routerSub) take(ctx context.Context) (frames, end []byte, ok bool) {
	for {
		s.mu.Lock()
		if len(s.buf) > 0 || s.end != nil {
			frames, end = s.buf, s.end
			s.buf, s.spare = s.spare[:0], nil
			s.mu.Unlock()
			return frames, end, true
		}
		s.mu.Unlock()
		select {
		case <-s.wake:
		case <-ctx.Done():
			return nil, nil, false
		}
	}
}

// done takes back a buffer take returned and, with the stream over or
// the subscriber gone, lets another subscriber claim the query.
func (s *routerSub) done(frames []byte, leaving bool) {
	s.mu.Lock()
	if frames != nil && cap(frames) <= maxBuffered {
		s.spare = frames[:0]
	}
	if leaving {
		s.streaming = false
	}
	s.mu.Unlock()
}
