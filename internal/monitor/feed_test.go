package monitor

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

// woken reports whether the feed holds a signal, consuming it.
func woken(f *Feed) bool {
	select {
	case <-f.Wake():
		return true
	default:
		return false
	}
}

// poll drains a subscription with Poll, returning its deltas and
// whether it reported ErrClosed.
func poll(t *testing.T, sub *Subscription) (ds []Delta, closed bool) {
	t.Helper()
	for {
		d, ok, err := sub.Poll()
		if errors.Is(err, ErrClosed) {
			return ds, true
		}
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return ds, false
		}
		ds = append(ds, d)
	}
}

// TestMonitorFeedWakesOncePerPass: a feed is signalled once for a pass
// that queued deltas on any number of its subscriptions, not per delta,
// and not at all for a pass that queued none; attaching and closing
// signal it too, and Poll drains without blocking — the queued deltas
// first, then ErrClosed. A closed feed is no longer signalled.
func TestMonitorFeedWakesOncePerPass(t *testing.T) {
	eng := monitorWorld(t, 0, 200, 1000, 61)
	m := New(eng, Config{})
	f := m.NewFeed()
	var subs []*Subscription
	for _, c := range []geom.Point{geom.Pt(300, 300), geom.Pt(700, 700)} {
		q := core.Query{Issuer: monitorIssuer(t, c, 50), W: 250, H: 250}
		sub, err := m.Register(reqOf(q, core.KindUncertain))
		if err != nil {
			t.Fatal(err)
		}
		sub.Attach(f)
		subs = append(subs, sub)
	}
	if !woken(f) || woken(f) {
		t.Fatal("attaching two subscriptions did not leave exactly one signal")
	}
	for _, sub := range subs {
		if !sub.Attached() {
			t.Fatalf("subscription %d not attached", sub.ID())
		}
		if ds, closed := poll(t, sub); len(ds) != 1 || closed {
			t.Fatalf("subscription %d: %d deltas (closed %v), want its snapshot", sub.ID(), len(ds), closed)
		}
	}

	ctx := context.Background()
	// One pass moving an object into each query's range.
	if _, err := m.ApplyUpdates(ctx, []core.Update{
		moveObject(t, 1, geom.Pt(300, 300), 10),
		moveObject(t, 2, geom.Pt(700, 700), 10),
	}); err != nil {
		t.Fatal(err)
	}
	if !woken(f) || woken(f) {
		t.Fatal("a pass with two deltas did not leave exactly one signal")
	}
	for _, sub := range subs {
		if ds, _ := poll(t, sub); len(ds) != 1 {
			t.Fatalf("subscription %d: %d deltas after the pass, want 1", sub.ID(), len(ds))
		}
	}
	// A pass both guards skip.
	if _, err := m.ApplyUpdates(ctx, []core.Update{moveObject(t, 3, geom.Pt(50, 950), 5)}); err != nil {
		t.Fatal(err)
	}
	if woken(f) {
		t.Fatal("a pass without deltas signalled the feed")
	}

	m.Unregister(subs[0].ID())
	if !woken(f) {
		t.Fatal("closing an attached subscription did not signal the feed")
	}
	if ds, closed := poll(t, subs[0]); len(ds) != 0 || !closed {
		t.Fatalf("closed subscription: %d deltas, closed %v", len(ds), closed)
	}

	f.Close()
	if _, err := m.ApplyUpdates(ctx, []core.Update{moveObject(t, 2, geom.Pt(710, 700), 10)}); err != nil {
		t.Fatal(err)
	}
	if woken(f) {
		t.Fatal("a closed feed was signalled")
	}
	if ds, _ := poll(t, subs[1]); len(ds) != 1 {
		t.Fatalf("subscription %d: %d deltas, want 1", subs[1].ID(), len(ds))
	}
}
