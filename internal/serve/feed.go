package serve

import (
	"cmp"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/monitor"
)

// A delta feed carries, on one stream, every delta of every standing
// query a client (a fleet router) registered onto it: the client opens
// GET /v1/feeds/{token}/stream, then registers with POST
// /v1/queries?feed={token}. After each monitor pass the feed writes
// everything the pass queued on its subscriptions, in subscription id
// order, and flushes once — one write per pass, not one per delta. A
// frame names its subscription:
//
//	id: <query id>
//	data: <the delta frame /v1/queries/{id}/stream would send>
//
// and a subscription that closed sends "id: <query id>", "event: close",
// "data: {}". When the feed's stream ends, its subscriptions are
// unregistered: nothing else can drain them.
type feed struct {
	mf   *monitor.Feed
	stop chan struct{} // closed by EndFeeds
	once sync.Once

	mu sync.Mutex
	// subs lists the attached subscriptions by ascending id, replaced
	// (never modified) by attach and drain.
	subs []*monitor.Subscription
	done bool // the stream has ended; nothing attaches any more
}

// attach puts sub on the feed, reporting false once the feed has ended.
func (f *feed) attach(sub *monitor.Subscription) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return false
	}
	i, _ := slices.BinarySearchFunc(f.subs, sub.ID(), func(s *monitor.Subscription, id int64) int { return cmp.Compare(s.ID(), id) })
	f.subs = slices.Insert(slices.Clone(f.subs), i, sub)
	sub.Attach(f.mf)
	return true
}

// appendPass drains every attached subscription without blocking and
// appends its frames to dst, returning them and how many there are. A
// subscription that closed leaves the feed after its close frame.
func (f *feed) appendPass(dst []byte) ([]byte, int, error) {
	f.mu.Lock()
	subs := f.subs
	f.mu.Unlock()
	frames := 0
	var closed []*monitor.Subscription
	for _, sub := range subs {
		for {
			d, ok, err := sub.Poll()
			if err != nil { // monitor.ErrClosed
				dst = appendFeedID(dst, sub.ID())
				dst = append(dst, "event: close\ndata: {}\n\n"...)
				frames++
				closed = append(closed, sub)
				break
			}
			if !ok {
				break
			}
			mark := len(dst)
			dst = append(appendFeedID(dst, sub.ID()), "data: "...)
			out, err := AppendDelta(dst, &d)
			if err != nil {
				return dst[:mark], frames, err
			}
			dst = append(out, "\n\n"...)
			frames++
		}
	}
	if closed != nil {
		f.mu.Lock()
		f.subs = slices.DeleteFunc(slices.Clone(f.subs), func(s *monitor.Subscription) bool { return slices.Contains(closed, s) })
		f.mu.Unlock()
	}
	return dst, frames, nil
}

func appendFeedID(dst []byte, id int64) []byte {
	return append(strconv.AppendInt(append(dst, "id: "...), id, 10), '\n')
}

// lookupFeed returns the open feed named token.
func (s *Server) lookupFeed(token string) (*feed, bool) {
	s.feedsMu.Lock()
	defer s.feedsMu.Unlock()
	f, ok := s.feeds[token]
	return f, ok
}

// GET /v1/feeds/{token}/stream — the delta feed of every standing query
// registered with ?feed={token}, as server-sent events. A token names
// one open stream at a time (409 for a second).
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	token := r.PathValue("token")
	f := &feed{mf: s.mon.NewFeed(), stop: make(chan struct{})}
	defer f.mf.Close()
	s.feedsMu.Lock()
	_, dup := s.feeds[token]
	if !dup {
		s.feeds[token] = f
	}
	s.feedsMu.Unlock()
	if dup {
		WriteError(s.log, w, http.StatusConflict, fmt.Errorf("feed %q is already open", token))
		return
	}
	defer s.endFeed(token, f)

	StartSSE(w)
	flusher, _ := w.(http.Flusher)
	buf := GetBuffer()
	defer func() { PutBuffer(buf, *buf) }()
	for {
		select {
		case <-f.mf.Wake():
		case <-r.Context().Done():
			return
		case <-f.stop:
			return
		}
		out, n, err := f.appendPass((*buf)[:0])
		*buf = out
		if err != nil {
			s.log.Error("delta does not encode; ending the feed", "feed", token, "err", err)
			return
		}
		if n == 0 {
			continue
		}
		if _, err := w.Write(out); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		s.feedWrites.Observe(float64(n))
	}
}

// EndFeeds ends every open feed's stream, as a server shutting down
// must: a feed never ends on its own, so http.Server.Shutdown would wait
// its whole deadline for one (register it with RegisterOnShutdown).
func (s *Server) EndFeeds() {
	s.feedsMu.Lock()
	defer s.feedsMu.Unlock()
	for _, f := range s.feeds {
		f.once.Do(func() { close(f.stop) })
	}
}

// endFeed closes a feed whose stream is over and unregisters what is
// still attached to it.
func (s *Server) endFeed(token string, f *feed) {
	s.feedsMu.Lock()
	delete(s.feeds, token)
	s.feedsMu.Unlock()
	f.mu.Lock()
	f.done = true
	subs := f.subs
	f.subs = nil
	f.mu.Unlock()
	for _, sub := range subs {
		s.mon.Unregister(sub.ID())
	}
}

// errNoFeed answers a registration onto a feed that is not open.
var errNoFeed = errors.New("no open delta feed")
