package core

import (
	"errors"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/index/pti"
	"repro/internal/index/rtree"
	"repro/internal/uncertain"
)

// ErrSnapshotClosed is returned by evaluation through a Snapshot whose
// Close has already run.
var ErrSnapshotClosed = errors.New("core: snapshot closed")

// engineState is one immutable version of the engine: the object
// tables, the sealed index roots, and the version epoch. Every
// evaluation runs against exactly one engineState, pinned for its
// duration; writers never modify a published state — they build the
// next one copy-on-write and swap the engine's state pointer inside a
// short critical section.
type engineState struct {
	// seq is the internal publish counter: it advances on every
	// published state, including states that are logically identical
	// to their base (a batch whose only effect was rolled back).
	// Node reclamation is keyed on seq.
	seq uint64
	// version is the public mutation epoch (Engine.Version): it
	// advances once per committed mutation or ApplyUpdates batch that
	// applied at least one update.
	version     uint64
	publishedAt time.Time

	// points and pointIdx hold the same point set: for every table row
	// p the index has exactly one leaf entry {Rect: geom.RectAt(p.Loc),
	// Ref: p.ID}, and it has no other entries. Every writer (bulk load,
	// upsert, move, delete, checkpoint restore) keeps the two in step,
	// so the read path takes a point's id and location straight from
	// its leaf entry; the table serves lookups by id.
	// TestPointIndexMatchesTable holds the invariant.
	points   *cowTable[uncertain.PointObject]
	pointIdx *rtree.Tree

	// objects and uncIdx hold the same object set: for every table row
	// {id, rect} the PTI has exactly one leaf entry {Rect: rect, Ref:
	// id}, and it has no other entries. The table maps an id to its
	// rectangle inline, with no heap object per row.
	//
	// A leaf record (pti.Index.IsLeafRecord: a uniform pdf whose
	// catalog is uncertain.UniformBound of its rectangle at the index's
	// values) is its rectangle and nothing else: its pdf and catalog
	// follow from the rectangle, its PTI entry stores no payload row,
	// and the filter, the pruning strategies and closed-form refinement
	// run from the entry alone. irregular holds the *uncertain.Object of
	// every other object, and of no leaf record. Every writer (bulk
	// load, insert and delete in the txn — replace, upsert and WAL
	// replay go through them — and checkpoint restore, which checks the
	// tables against the indexes) keeps the three in step; object and
	// objectAt rebuild a leaf record's object on demand.
	// TestLeafRecordMatchesTable holds the invariant.
	objects   *cowTable[geom.Rect]
	uncIdx    *pti.Index
	irregular *cowTable[*uncertain.Object]

	probs []float64

	// met is the owning engine's telemetry, shared by every state so
	// the evaluation paths (which run on states) can record without an
	// Engine back-pointer. stateTxn.finish copies it forward.
	met *engineMetrics
}

// pinEntry counts the evaluations and snapshots pinning one state.
type pinEntry struct {
	count   int
	version uint64
}

// retiredBatch is the garbage of one published transition: index
// nodes superseded while building the state with seq == seq+1. They
// may still be referenced by states up to and including seq, so they
// are freed only once no pin at seq or older exists.
type retiredBatch struct {
	seq        uint64
	pointNodes []rtree.NodeID
	uncNodes   []rtree.NodeID
}

// acquireState pins and returns the current state. The load happens
// under pinMu — the same lock writers hold while swapping the state
// pointer and sweeping the graveyard — so a state can never be
// reclaimed between being loaded and being pinned.
func (e *Engine) acquireState() *engineState {
	e.pinMu.Lock()
	st := e.state.Load()
	e.pinLocked(st)
	e.pinMu.Unlock()
	return st
}

// pinLocked increments st's pin count; pinMu is held.
func (e *Engine) pinLocked(st *engineState) {
	pe := e.pins[st.seq]
	if pe == nil {
		pe = &pinEntry{version: st.version}
		e.pins[st.seq] = pe
	}
	pe.count++
}

// releaseState drops one pin on st and frees whatever garbage became
// unreachable.
func (e *Engine) releaseState(st *engineState) {
	e.pinMu.Lock()
	if pe := e.pins[st.seq]; pe != nil {
		pe.count--
		if pe.count <= 0 {
			delete(e.pins, st.seq)
		}
	}
	freeable := e.collectFreeableLocked()
	e.pinMu.Unlock()
	e.freeRetired(freeable)
}

// collectFreeableLocked pops the graveyard prefix no pinned state can
// reference: a batch retired at seq s is unreachable once every pin
// sits at seq > s (new states reference the replacement nodes, not
// the retired ones). pinMu is held.
func (e *Engine) collectFreeableLocked() []retiredBatch {
	if len(e.graveyard) == 0 {
		return nil
	}
	minPinned := uint64(math.MaxUint64)
	for seq := range e.pins {
		if seq < minPinned {
			minPinned = seq
		}
	}
	cut := 0
	for cut < len(e.graveyard) && e.graveyard[cut].seq < minPinned {
		cut++
	}
	if cut == 0 {
		return nil
	}
	out := e.graveyard[:cut:cut]
	e.graveyard = e.graveyard[cut:]
	return out
}

// freeRetired returns retired index nodes to their stores. Both index
// stores are safe for concurrent Free against reader Gets, so
// reclamation can run from whichever goroutine dropped the last pin.
// A failed free leaks the node (never corrupts): the ids come from
// sealed transactions, so the only failure mode is storage-level.
func (e *Engine) freeRetired(batches []retiredBatch) {
	if len(batches) == 0 {
		return
	}
	st := e.state.Load()
	var freed int64
	for _, b := range batches {
		_ = st.pointIdx.FreeAll(b.pointNodes)
		_ = st.uncIdx.FreeRetired(b.uncNodes)
		freed += int64(len(b.pointNodes) + len(b.uncNodes))
	}
	e.met.freedNodes.Add(freed)
}

// Snapshot is a pinned immutable view of the engine at one version:
// the object tables, the index roots, and the version epoch, exactly
// as published by some mutation batch. All evaluation methods of a
// snapshot observe this state no matter how many updates commit
// concurrently, and evaluations through it never block ingestion —
// the MVCC contract.
//
// A snapshot holds index nodes live until Close; every Snapshot must
// be Closed (idempotently) or superseded node reclamation stalls.
// After Close, evaluations return ErrSnapshotClosed.
type Snapshot struct {
	e      *Engine
	st     *engineState
	closed atomic.Bool
}

// Snapshot pins and returns the engine's current state. The caller
// must Close it. If the engine was built with a MaxSnapshotAge, a
// snapshot left open past the bound is force-closed by the engine.
func (e *Engine) Snapshot() *Snapshot {
	e.pinMu.Lock()
	st := e.state.Load()
	e.pinLocked(st)
	s := &Snapshot{e: e, st: st}
	e.registerSnapshotLocked(s)
	e.pinMu.Unlock()
	return s
}

// registerSnapshotLocked records an open snapshot for the age-bound
// sweep; pinMu is held.
func (e *Engine) registerSnapshotLocked(s *Snapshot) {
	e.snaps[s] = time.Now()
}

// sweepSnapshotsLocked force-closes registered snapshots older than
// the engine's age bound. It runs inside every publish and every
// SnapshotStats call, so a leaked pin is reclaimed as soon as either
// the writers or the metrics path next come around. The CompareAndSwap
// arbitrates with a racing user Close; in-flight evaluations hold
// their own per-use pins and are unaffected. pinMu is held.
func (e *Engine) sweepSnapshotsLocked(now time.Time) {
	if e.maxSnapAge <= 0 {
		return
	}
	for s, born := range e.snaps {
		if now.Sub(born) <= e.maxSnapAge {
			continue
		}
		delete(e.snaps, s)
		if s.closed.CompareAndSwap(false, true) {
			e.unpinLocked(s.st)
			e.forcedCloses++
		}
	}
}

// unpinLocked drops one pin on st without collecting the graveyard;
// pinMu is held and the caller collects afterwards.
func (e *Engine) unpinLocked(st *engineState) {
	if pe := e.pins[st.seq]; pe != nil {
		pe.count--
		if pe.count <= 0 {
			delete(e.pins, st.seq)
		}
	}
}

// Close releases the snapshot's pin, allowing index nodes superseded
// since to be reclaimed. Close is idempotent, and safe to race with
// in-flight evaluations through the snapshot: each evaluation holds
// its own pin for its duration (see acquireUse), so closing underneath
// one never lets the nodes it is traversing be reclaimed — only new
// evaluations are refused. It is also safe to race with an engine-side
// forced close (MaxSnapshotAge): exactly one of the two releases the
// pin.
func (s *Snapshot) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.e.pinMu.Lock()
		delete(s.e.snaps, s)
		s.e.unpinLocked(s.st)
		freeable := s.e.collectFreeableLocked()
		s.e.pinMu.Unlock()
		s.e.freeRetired(freeable)
	}
}

// acquireUse pins the snapshot's state for one evaluation, refusing
// closed snapshots. The pin is taken under pinMu, so a racing Close
// can only release the snapshot's own pin, never the evaluation's:
// either this call pins first (the evaluation's nodes stay live until
// its release) or the close flag is observed and the evaluation is
// refused. The caller must releaseState the returned state.
func (s *Snapshot) acquireUse() (*engineState, error) {
	s.e.pinMu.Lock()
	if s.closed.Load() {
		s.e.pinMu.Unlock()
		return nil, ErrSnapshotClosed
	}
	s.e.pinLocked(s.st)
	s.e.pinMu.Unlock()
	return s.st, nil
}

// Version returns the engine version this snapshot observes.
func (s *Snapshot) Version() uint64 { return s.st.version }

// PublishedAt returns when this snapshot's state was published (the
// engine's construction time for the initial state).
func (s *Snapshot) PublishedAt() time.Time { return s.st.publishedAt }

// NumPoints returns the number of point objects in the snapshot.
func (s *Snapshot) NumPoints() int { return s.st.points.Len() }

// NumUncertain returns the number of uncertain objects in the
// snapshot.
func (s *Snapshot) NumUncertain() int { return s.st.objects.Len() }

// Point returns the point object with the given id, as of the
// snapshot.
func (s *Snapshot) Point(id uncertain.ID) (uncertain.PointObject, bool) {
	return s.st.points.Get(id)
}

// Object returns the uncertain object with the given id, as of the
// snapshot. A leaf record's object is rebuilt from its rectangle: equal
// to the one inserted, not the same pointer.
func (s *Snapshot) Object(id uncertain.ID) (*uncertain.Object, bool) {
	return s.st.object(id)
}

// SnapshotStats reports the engine's MVCC bookkeeping for metrics:
// how stale the freshest state is, what readers still pin, and how
// much superseded index garbage awaits reclamation.
type SnapshotStats struct {
	// Version is the current published engine version; Age is the
	// time since it was published (how long since the last committed
	// mutation).
	Version uint64
	Age     time.Duration
	// Pins counts outstanding pins (in-flight evaluations plus open
	// Snapshots); PinnedStates counts distinct pinned states.
	Pins         int
	PinnedStates int
	// OldestPinnedVersion is the engine version of the oldest state
	// still pinned (Version when nothing is pinned); VersionLag is
	// Version − OldestPinnedVersion, the window writers keep alive
	// for readers.
	OldestPinnedVersion uint64
	VersionLag          uint64
	// RetiredBatches / RetiredNodes count the superseded index nodes
	// whose reclamation is blocked by the oldest pins.
	RetiredBatches int
	RetiredNodes   int
	// OpenSnapshots counts registered Snapshots not yet closed;
	// ForcedCloses counts snapshots the engine force-closed for
	// exceeding EngineOptions.MaxSnapshotAge.
	OpenSnapshots int
	ForcedCloses  uint64
}

// SnapshotStats returns the engine's current MVCC counters, first
// running the snapshot age-bound sweep so a wedged pin shows up here
// as a ForcedClose rather than as unbounded RetiredNodes growth.
func (e *Engine) SnapshotStats() SnapshotStats {
	e.pinMu.Lock()
	e.sweepSnapshotsLocked(time.Now())
	freeable := e.collectFreeableLocked()
	st := e.state.Load()
	out := SnapshotStats{
		Version:             st.version,
		Age:                 time.Since(st.publishedAt),
		OldestPinnedVersion: st.version,
		PinnedStates:        len(e.pins),
		RetiredBatches:      len(e.graveyard),
	}
	oldestSeq := uint64(math.MaxUint64)
	for seq, pe := range e.pins {
		out.Pins += pe.count
		if seq < oldestSeq {
			oldestSeq = seq
			out.OldestPinnedVersion = pe.version
		}
	}
	for _, b := range e.graveyard {
		out.RetiredNodes += len(b.pointNodes) + len(b.uncNodes)
	}
	out.OpenSnapshots = len(e.snaps)
	out.ForcedCloses = e.forcedCloses
	e.pinMu.Unlock()
	e.freeRetired(freeable)
	out.VersionLag = out.Version - out.OldestPinnedVersion
	return out
}
