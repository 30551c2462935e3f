package monitor

import (
	"slices"
	"sync/atomic"
)

// A Feed is one consumer's wake-up for many subscriptions: instead of a
// signal per queued delta, the monitor signals the feed once per
// ingestion pass that queued a delta on any subscription attached to
// it, once when a subscription is attached, and once when one closes.
// The consumer then drains every attached subscription with Poll, so a
// pass's deltas leave together — a server writes them to one
// connection in one write.
type Feed struct {
	m    *Monitor
	wake chan struct{} // capacity 1
	// dirty is set when a delta is queued on an attached subscription
	// and cleared by the pass that signals the feed.
	dirty atomic.Bool
}

// NewFeed registers a feed with the monitor. Close it when its consumer
// is gone.
func (m *Monitor) NewFeed() *Feed {
	f := &Feed{m: m, wake: make(chan struct{}, 1)}
	m.mu.Lock()
	m.feeds = append(slices.Clone(m.feeds), f)
	m.mu.Unlock()
	return f
}

// Wake is signalled when an attached subscription may have something
// for Poll. A signal can cover any number of deltas and any number of
// subscriptions, and one may find nothing new.
func (f *Feed) Wake() <-chan struct{} { return f.wake }

// Close removes the feed from the monitor's pass-end signalling. It
// does not unregister the subscriptions attached to it.
func (f *Feed) Close() {
	m := f.m
	m.mu.Lock()
	m.feeds = slices.DeleteFunc(slices.Clone(m.feeds), func(g *Feed) bool { return g == f })
	m.mu.Unlock()
}

func (f *Feed) signal() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// wakeFeeds ends a pass: every feed a queued delta marked is signalled.
func (m *Monitor) wakeFeeds() {
	m.mu.RLock()
	feeds := m.feeds
	m.mu.RUnlock()
	for _, f := range feeds {
		if f.dirty.Swap(false) {
			f.signal()
		}
	}
}

// Attach hands the subscription's deltas to f: from here on a delta
// queued on it marks the feed, and the pass that queued it signals the
// feed when it ends. The subscription is then drained with Poll by the
// feed's consumer; what is already queued (the registration snapshot)
// signals the feed at once. A subscription attaches to one feed, once.
func (s *Subscription) Attach(f *Feed) {
	s.mu.Lock()
	s.feed = f
	s.mu.Unlock()
	f.signal()
}

// Attached reports whether the subscription is drained through a feed.
func (s *Subscription) Attached() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.feed != nil
}

// Poll is Next without the wait: it returns the next pending delta and
// true, or false when none is queued — with ErrClosed once the
// subscription is closed and drained.
func (s *Subscription) Poll() (Delta, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) > 0 {
		d := s.pending[0]
		n := copy(s.pending, s.pending[1:])
		s.pending[n] = Delta{} // release references
		s.pending = s.pending[:n]
		return d, true, nil
	}
	if s.closed {
		return Delta{}, false, ErrClosed
	}
	return Delta{}, false, nil
}
