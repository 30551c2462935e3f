package core

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/index/pti"
	"repro/internal/index/rtree"
	"repro/internal/uncertain"
)

// The engine supports dynamic updates — the moving-object setting the
// paper targets has vehicles joining, leaving, and re-reporting
// positions continuously. Updates maintain both indexes and run
// concurrently with queries under MVCC snapshot isolation: a mutation
// builds the next engine state copy-on-write (path-copied index
// nodes, bucket-copied object tables) and publishes it atomically, so
// it never waits for in-flight evaluations — and evaluations, pinned
// to the state current when they started, never see a half-applied
// update. ApplyUpdates amortizes the copy-on-write work over a whole
// batch (each touched index path and table bucket is copied at most
// once per batch). Each committed mutation advances the engine
// version (Engine.Version), the epoch continuous-query layers key
// cached results on.

// UpdateOp selects what one Update does. All operations are
// upsert-shaped where that is meaningful, so a position re-report does
// not need to know whether the object is already present.
type UpdateOp int

const (
	// OpUpsertPoint inserts Update.Point, or moves it if a point with
	// that id already exists.
	OpUpsertPoint UpdateOp = iota
	// OpDeletePoint removes the point object with Update.ID (absent
	// ids are a no-op, reported in UpdateReport.Missing).
	OpDeletePoint
	// OpUpsertObject inserts Update.Object, replacing any uncertain
	// object with the same id — the re-report of an imprecise
	// location.
	OpUpsertObject
	// OpDeleteObject removes the uncertain object with Update.ID
	// (absent ids are a no-op, reported in UpdateReport.Missing).
	OpDeleteObject
)

// String implements fmt.Stringer.
func (op UpdateOp) String() string {
	switch op {
	case OpUpsertPoint:
		return "upsert-point"
	case OpDeletePoint:
		return "delete-point"
	case OpUpsertObject:
		return "upsert-object"
	case OpDeleteObject:
		return "delete-object"
	default:
		return fmt.Sprintf("UpdateOp(%d)", int(op))
	}
}

// Update is one element of an ApplyUpdates batch.
type Update struct {
	Op UpdateOp
	// Point is the payload of OpUpsertPoint.
	Point uncertain.PointObject
	// Object is the payload of OpUpsertObject.
	Object *uncertain.Object
	// ID names the target of the delete operations.
	ID uncertain.ID
}

// UpdateError records one failed update of a batch.
type UpdateError struct {
	// Index is the update's position in the batch. Index -1 marks a
	// batch-wide storage failure (a cached index-node write the store
	// rejected): none of the batch was published.
	Index int
	Err   error
}

// Error implements the error interface.
func (e UpdateError) Error() string {
	return fmt.Sprintf("update %d: %v", e.Index, e.Err)
}

// Table names one of the engine's two object tables.
type Table uint8

const (
	// TableObjects is the uncertain-object table (and its PTI).
	TableObjects Table = iota
	// TablePoints is the point-object table (and its R-tree).
	TablePoints
)

// Change records what one applied update did to one object: which
// table it lives in, its id, and its bounding rectangle before and
// after. An insert has no Old, a delete no New. A query is a function
// of one table only (Kind.Table), and an object's qualification
// probability depends on that object alone, so a change can affect a
// range query's answer only through its own id and only when the
// query's guard region intersects Old or New — the two facts the
// continuous-query monitor's per-object maintenance rests on.
type Change struct {
	Table          Table
	ID             uncertain.ID
	Old, New       geom.Rect
	HasOld, HasNew bool
}

// Touches reports whether the object's old or new rectangle
// intersects r.
func (c Change) Touches(r geom.Rect) bool {
	return c.HasOld && c.Old.Intersects(r) || c.HasNew && c.New.Intersects(r)
}

// UpdateReport summarizes one ApplyUpdates batch.
type UpdateReport struct {
	// Applied counts updates committed successfully.
	Applied int
	// Missing counts deletes whose target id did not exist (no-ops,
	// not errors).
	Missing int
	// Errors lists the updates that failed; the rest of the batch is
	// still applied.
	Errors []UpdateError
	// Changes lists the applied updates in batch order, one record
	// each (an id updated twice appears twice). Failed updates and
	// deletes of absent ids leave no record.
	Changes []Change
	// Version is the engine version after the batch committed.
	Version uint64
}

// Dirty returns the set of regions the batch touched: the old and new
// bounding rectangles of every applied update.
func (rep *UpdateReport) Dirty() []geom.Rect {
	out := make([]geom.Rect, 0, 2*len(rep.Changes))
	for _, c := range rep.Changes {
		if c.HasOld {
			out = append(out, c.Old)
		}
		if c.HasNew {
			out = append(out, c.New)
		}
	}
	return out
}

// Touches reports whether any dirty region of the batch intersects r.
// A query whose guard region intersects none of them is provably
// unaffected by the batch.
func (rep *UpdateReport) Touches(r geom.Rect) bool {
	for _, c := range rep.Changes {
		if c.Touches(r) {
			return true
		}
	}
	return false
}

// stateTxn builds the next engine state copy-on-write over a base
// version. Tables and trees are cloned lazily, on first touch, so a
// batch pays only for the structures it actually mutates; reads fall
// through to the base until then. One writer builds a txn, under
// writeMu, against the current state (see Engine.commit).
type stateTxn struct {
	base *engineState

	points   *tableTxn[uncertain.PointObject]
	pointIdx *rtree.Tree

	objects   *tableTxn[*uncertain.Object]
	uncIdx    *pti.Index
	irregular *tableTxn[struct{}]

	// logged accumulates the txn's effective primitive updates in
	// application order — the WAL record a durable engine appends at
	// publish. Composed operations log their primitives (a move logs
	// delete+upsert, a rolled-back failure an identity pair), so
	// replaying the sequence through ApplyUpdates reproduces the
	// committed logical state exactly.
	logged []Update
}

func newStateTxn(base *engineState) *stateTxn { return &stateTxn{base: base} }

func (tx *stateTxn) pointTable() *tableTxn[uncertain.PointObject] {
	if tx.points == nil {
		tx.points = newTableTxn(tx.base.points)
	}
	return tx.points
}

func (tx *stateTxn) pointTree() *rtree.Tree {
	if tx.pointIdx == nil {
		tx.pointIdx = tx.base.pointIdx.CloneCOW()
	}
	return tx.pointIdx
}

func (tx *stateTxn) objectTable() *tableTxn[*uncertain.Object] {
	if tx.objects == nil {
		tx.objects = newTableTxn(tx.base.objects)
	}
	return tx.objects
}

func (tx *stateTxn) uncTree() *pti.Index {
	if tx.uncIdx == nil {
		tx.uncIdx = tx.base.uncIdx.CloneCOW()
	}
	return tx.uncIdx
}

func (tx *stateTxn) irregularSet() *tableTxn[struct{}] {
	if tx.irregular == nil {
		tx.irregular = newTableTxn(tx.base.irregular)
	}
	return tx.irregular
}

// inTable is engineState.inTable through the txn.
func (tx *stateTxn) inTable(id uncertain.ID) bool {
	if tx.irregular != nil {
		_, ok := tx.irregular.Get(id)
		return ok
	}
	return tx.base.inTable(id)
}

func (tx *stateTxn) getPoint(id uncertain.ID) (uncertain.PointObject, bool) {
	if tx.points != nil {
		return tx.points.Get(id)
	}
	return tx.base.points.Get(id)
}

func (tx *stateTxn) getObject(id uncertain.ID) (*uncertain.Object, bool) {
	if tx.objects != nil {
		return tx.objects.Get(id)
	}
	return tx.base.objects.Get(id)
}

// touched reports whether the txn physically diverged from its base.
func (tx *stateTxn) touched() bool {
	return tx.points != nil || tx.pointIdx != nil || tx.objects != nil || tx.uncIdx != nil || tx.irregular != nil
}

// discard throws the txn away instead of publishing it: the cloned
// trees' private nodes are freed and the base state — untouched by
// construction under copy-on-write — simply remains current. Single
// mutators call this on error so a mutation that failed mid-way
// through an index operation can never publish a torn tree. (Batch
// application cannot: later updates of the batch must still apply, so
// its per-update error paths restore logical state instead — see
// apply.)
func (tx *stateTxn) discard() {
	if tx.pointIdx != nil {
		_ = tx.pointIdx.AbortCOW()
	}
	if tx.uncIdx != nil {
		_ = tx.uncIdx.Abort()
	}
}

// flush writes the txn's cached index-node updates through to the
// stores. commit calls it before finish seals the trees, so a write the
// store rejects leaves a txn that discard can still throw away whole (a
// seal that fails half-way cannot be undone). An error means storage
// rejected a write; the txn must be discarded, not published.
func (tx *stateTxn) flush() error {
	if tx.pointIdx != nil {
		if err := tx.pointIdx.FlushCOW(); err != nil {
			return err
		}
	}
	if tx.uncIdx != nil {
		if err := tx.uncIdx.FlushCOW(); err != nil {
			return err
		}
	}
	return nil
}

// finish seals the txn into the next engine state plus the retired
// index nodes, or returns nil if nothing was touched. seq, version
// and publishedAt are the caller's to fill. An error is only possible
// when a cached node write was not flushed beforehand and the store
// rejects it at seal time; the txn must not be published then.
func (tx *stateTxn) finish() (*engineState, retiredBatch, error) {
	if !tx.touched() {
		return nil, retiredBatch{}, nil
	}
	st := &engineState{
		points:    tx.base.points,
		pointIdx:  tx.base.pointIdx,
		objects:   tx.base.objects,
		uncIdx:    tx.base.uncIdx,
		irregular: tx.base.irregular,
		probs:     tx.base.probs,
		met:       tx.base.met,
	}
	var retired retiredBatch
	if tx.points != nil {
		st.points = tx.points.Commit()
	}
	if tx.pointIdx != nil {
		st.pointIdx = tx.pointIdx
		ids, err := tx.pointIdx.Seal()
		if err != nil {
			return nil, retiredBatch{}, err
		}
		retired.pointNodes = ids
	}
	if tx.objects != nil {
		st.objects = tx.objects.Commit()
	}
	if tx.irregular != nil {
		st.irregular = tx.irregular.Commit()
	}
	if tx.uncIdx != nil {
		st.uncIdx = tx.uncIdx
		ids, err := tx.uncIdx.Seal()
		if err != nil {
			return nil, retiredBatch{}, err
		}
		retired.uncNodes = ids
	}
	return st, retired, nil
}

// publishLocked seals and publishes tx. advance controls whether the
// public version epoch moves (mutators that logically changed
// nothing — a failed single mutation whose rollback restored the base
// contents, a batch that applied zero updates — publish their
// physical state, if any, without advancing the epoch: equal versions
// must mean identical contents). pin additionally returns a pinned
// snapshot of the resulting state, taken atomically with the publish —
// the post-batch view continuous-query layers evaluate against.
// writeMu is held and tx.base is the current state (commit built tx
// under the lock). Readers meet the writer only at the pinMu section
// below, and none of it waits for them. A non-nil error (the WAL append
// failed, or a storage write was rejected at seal time — impossible
// after a successful flush) means nothing was published.
func (e *Engine) publishLocked(tx *stateTxn, advance, pin bool) (*engineState, *Snapshot, error) {
	base := tx.base
	st, retired, err := tx.finish()
	if err != nil {
		// Nothing reached the state pointer; the base version stays
		// current. The txn's fresh nodes may leak (partial seal), but
		// this is a storage-level failure path that a prior flush has
		// already ruled out.
		return base, nil, err
	}
	// Write-ahead: a version-advancing batch reaches the WAL before
	// its state pointer swap. An append failure aborts the publish —
	// the base stays current — so recovery can never be missing a
	// version that was visible to queries.
	if advance && st != nil && e.dur != nil {
		if werr := e.logBatchLocked(base.version+1, tx.logged); werr != nil {
			return base, nil, werr
		}
	}
	var freeable []retiredBatch
	var snap *Snapshot

	e.pinMu.Lock()
	if st == nil {
		st = base
	} else {
		st.seq = base.seq + 1
		st.version = base.version
		if advance {
			st.version++
		}
		st.publishedAt = time.Now()
		e.state.Store(st)
		e.met.publishes.Add(1)
		if len(retired.pointNodes) > 0 || len(retired.uncNodes) > 0 {
			retired.seq = base.seq
			e.graveyard = append(e.graveyard, retired)
			e.met.retiredNodes.Add(int64(len(retired.pointNodes) + len(retired.uncNodes)))
		}
	}
	if pin {
		e.pinLocked(st)
		snap = &Snapshot{e: e, st: st}
		e.registerSnapshotLocked(snap)
	}
	e.sweepSnapshotsLocked(time.Now())
	freeable = e.collectFreeableLocked()
	e.pinMu.Unlock()

	e.freeRetired(freeable)
	return st, snap, nil
}

// commit runs one write transaction: under writeMu, fn builds it
// against the current state, its node writes go through to the stores,
// and it is published — or, when fn or the flush fails, discarded —
// before the lock is released. fn returns whether the version epoch
// advances. commit returns the engine version the transaction left
// (the unchanged base's on failure) and, with pin set, a snapshot
// pinning that same state, both taken inside the critical section so
// no other writer can commit between them. Writers serialize whole;
// readers never take writeMu.
func (e *Engine) commit(pin bool, fn func(tx *stateTxn) (advance bool, err error)) (uint64, *Snapshot, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	base := e.state.Load()
	tx := newStateTxn(base)
	advance, err := fn(tx)
	if err == nil {
		err = tx.flush()
	}
	if err != nil {
		tx.discard()
	} else {
		st, snap, perr := e.publishLocked(tx, advance, pin)
		if perr == nil {
			return st.version, snap, nil
		}
		err = perr
	}
	var snap *Snapshot
	if pin {
		snap = e.Snapshot() // the base: nothing else publishes under writeMu
	}
	return base.version, snap, err
}

// ApplyUpdates applies a batch of updates as one transaction. Failed
// updates are recorded in the report's Errors and do not abort the
// batch; deletes of absent ids are counted as Missing. The engine
// version advances once per batch that applied at least one update.
//
// Concurrency: the batch is built copy-on-write against the current
// version and published atomically — queries observe either the
// entire batch or none of it, and ApplyUpdates never waits for
// in-flight evaluations. Concurrent writers take turns: each batch is
// built, written and published under the engine's writer lock.
func (e *Engine) ApplyUpdates(batch []Update) UpdateReport {
	rep, _ := e.applyUpdates(batch, false)
	return rep
}

// ApplyUpdatesSnapshot is ApplyUpdates additionally returning a
// pinned snapshot of the post-batch state, taken atomically with the
// commit: no concurrent mutation can slip between the batch and the
// snapshot. It is the ingestion entry point for continuous-query
// layers, whose incremental re-evaluations must observe exactly the
// version the report describes. The caller must Close the snapshot.
func (e *Engine) ApplyUpdatesSnapshot(batch []Update) (UpdateReport, *Snapshot) {
	return e.applyUpdates(batch, true)
}

func (e *Engine) applyUpdates(batch []Update, pin bool) (UpdateReport, *Snapshot) {
	start := time.Now()
	rep := UpdateReport{Changes: make([]Change, 0, len(batch))}
	version, snap, err := e.commit(pin, func(tx *stateTxn) (bool, error) {
		// A move logs two primitives (delete + upsert).
		tx.logged = make([]Update, 0, 2*len(batch))
		for i, u := range batch {
			if err := tx.apply(u, &rep); err != nil {
				rep.Errors = append(rep.Errors, UpdateError{Index: i, Err: err})
			}
		}
		return rep.Applied > 0, nil
	})
	if err != nil {
		// Storage rejected a node write (or the WAL append): none of
		// the batch was published. Report it as one batch-wide error
		// (Index -1) against the unchanged version.
		rep = UpdateReport{Errors: []UpdateError{{Index: -1, Err: err}}}
	}
	rep.Version = version
	e.met.applyLatency.ObserveDuration(time.Since(start))
	e.met.appliedUpdates.Add(int64(rep.Applied))
	return rep, snap
}

// apply dispatches one update onto the txn, recording its Change.
func (tx *stateTxn) apply(u Update, rep *UpdateReport) error {
	var c Change
	switch u.Op {
	case OpUpsertPoint:
		c = Change{Table: TablePoints, ID: u.Point.ID, New: geom.RectAt(u.Point.Loc), HasNew: true}
		if p, ok := tx.getPoint(u.Point.ID); ok {
			c.Old, c.HasOld = geom.RectAt(p.Loc), true
			if err := tx.movePoint(u.Point.ID, u.Point.Loc); err != nil {
				return err
			}
		} else if err := tx.insertPoint(u.Point); err != nil {
			return err
		}
	case OpDeletePoint:
		p, ok := tx.getPoint(u.ID)
		if !ok {
			rep.Missing++
			return nil
		}
		if _, err := tx.deletePoint(u.ID); err != nil {
			return err
		}
		c = Change{Table: TablePoints, ID: u.ID, Old: geom.RectAt(p.Loc), HasOld: true}
	case OpUpsertObject:
		if u.Object == nil {
			return fmt.Errorf("core: %v with nil object", u.Op)
		}
		c = Change{Table: TableObjects, ID: u.Object.ID, New: u.Object.Region(), HasNew: true}
		if old, existed := tx.getObject(u.Object.ID); existed {
			c.Old, c.HasOld = old.Region(), true
		}
		if err := tx.replaceObject(u.Object); err != nil {
			return err
		}
	case OpDeleteObject:
		old, ok := tx.getObject(u.ID)
		if !ok {
			rep.Missing++
			return nil
		}
		if _, err := tx.deleteObject(u.ID); err != nil {
			return err
		}
		c = Change{Table: TableObjects, ID: u.ID, Old: old.Region(), HasOld: true}
	default:
		return fmt.Errorf("core: unknown update op %v", u.Op)
	}
	rep.Applied++
	rep.Changes = append(rep.Changes, c)
	return nil
}

// InsertPoint adds a point object. Its ID must be new among point
// objects. Safe to call concurrently with queries (the mutation
// publishes a new snapshot); batches of updates should prefer
// ApplyUpdates, which amortizes the copy-on-write work.
func (e *Engine) InsertPoint(p uncertain.PointObject) error {
	_, _, err := e.commit(false, func(tx *stateTxn) (bool, error) {
		return true, tx.insertPoint(p)
	})
	return err
}

func (tx *stateTxn) insertPoint(p uncertain.PointObject) error {
	if _, dup := tx.getPoint(p.ID); dup {
		return fmt.Errorf("core: point object %d already exists", p.ID)
	}
	if err := tx.pointTree().Insert(geom.RectAt(p.Loc), rtree.Ref(p.ID), nil); err != nil {
		return err
	}
	tx.pointTable().Put(p.ID, p)
	tx.logged = append(tx.logged, Update{Op: OpUpsertPoint, Point: p})
	return nil
}

// DeletePoint removes the point object with the given id, reporting
// whether it existed. Safe to call concurrently with queries.
func (e *Engine) DeletePoint(id uncertain.ID) (bool, error) {
	var ok bool
	_, _, err := e.commit(false, func(tx *stateTxn) (bool, error) {
		var err error
		ok, err = tx.deletePoint(id)
		return ok, err
	})
	return ok, err
}

func (tx *stateTxn) deletePoint(id uncertain.ID) (bool, error) {
	p, ok := tx.getPoint(id)
	if !ok {
		return false, nil
	}
	removed, err := tx.pointTree().Delete(geom.RectAt(p.Loc), rtree.Ref(id))
	if err != nil {
		return false, err
	}
	if !removed {
		return false, fmt.Errorf("core: point %d present in table but missing from index", id)
	}
	tx.pointTable().Delete(id)
	tx.logged = append(tx.logged, Update{Op: OpDeletePoint, ID: id})
	return true, nil
}

// MovePoint updates a point object's location (delete + insert). Safe
// to call concurrently with queries; a query never observes the point
// half-moved.
func (e *Engine) MovePoint(id uncertain.ID, to geom.Point) error {
	_, _, err := e.commit(false, func(tx *stateTxn) (bool, error) {
		return true, tx.movePoint(id, to)
	})
	return err
}

func (tx *stateTxn) movePoint(id uncertain.ID, to geom.Point) error {
	old, ok := tx.getPoint(id)
	if !ok {
		return fmt.Errorf("core: point %d not found", id)
	}
	if _, err := tx.deletePoint(id); err != nil {
		return err
	}
	if err := tx.insertPoint(uncertain.PointObject{ID: id, Loc: to}); err != nil {
		// Restore the old position so a failed move leaves the state
		// exactly as it was; the old point inserted cleanly before,
		// so the restore can only fail on an index I/O error.
		if rerr := tx.insertPoint(old); rerr != nil {
			return fmt.Errorf("core: move failed (%w) and old position not restored: %v", err, rerr)
		}
		return err
	}
	return nil
}

// InsertObject adds an uncertain object. Its ID must be new among
// uncertain objects and its U-catalog must cover the engine's catalog
// probability values. Safe to call concurrently with queries.
func (e *Engine) InsertObject(o *uncertain.Object) error {
	_, _, err := e.commit(false, func(tx *stateTxn) (bool, error) {
		return true, tx.insertObject(o)
	})
	return err
}

func (tx *stateTxn) insertObject(o *uncertain.Object) error {
	if _, dup := tx.getObject(o.ID); dup {
		return fmt.Errorf("core: uncertain object %d already exists", o.ID)
	}
	if err := tx.uncTree().Insert(o); err != nil {
		return err
	}
	tx.objectTable().Put(o.ID, o)
	if !isLeafRecord(o, tx.base.uncIdx.Probs()) {
		tx.irregularSet().Put(o.ID, struct{}{})
	}
	tx.logged = append(tx.logged, Update{Op: OpUpsertObject, Object: o})
	return nil
}

// DeleteObject removes the uncertain object with the given id,
// reporting whether it existed. Safe to call concurrently with
// queries.
func (e *Engine) DeleteObject(id uncertain.ID) (bool, error) {
	var ok bool
	_, _, err := e.commit(false, func(tx *stateTxn) (bool, error) {
		var err error
		ok, err = tx.deleteObject(id)
		return ok, err
	})
	return ok, err
}

func (tx *stateTxn) deleteObject(id uncertain.ID) (bool, error) {
	o, ok := tx.getObject(id)
	if !ok {
		return false, nil
	}
	removed, err := tx.uncTree().Delete(o)
	if err != nil {
		return false, err
	}
	if !removed {
		return false, fmt.Errorf("core: object %d present in table but missing from index", id)
	}
	tx.objectTable().Delete(id)
	if tx.inTable(id) {
		tx.irregularSet().Delete(id)
	}
	tx.logged = append(tx.logged, Update{Op: OpDeleteObject, ID: id})
	return true, nil
}

// ReplaceObject atomically swaps the uncertain object with the given
// id for a new version (same id, new pdf/region) — a position
// re-report in the moving-object setting. Safe to call concurrently
// with queries; a query observes either the old or the new version,
// never neither.
func (e *Engine) ReplaceObject(o *uncertain.Object) error {
	_, _, err := e.commit(false, func(tx *stateTxn) (bool, error) {
		return true, tx.replaceObject(o)
	})
	return err
}

func (tx *stateTxn) replaceObject(o *uncertain.Object) error {
	old, existed := tx.getObject(o.ID)
	if existed {
		if _, err := tx.deleteObject(o.ID); err != nil {
			return err
		}
	}
	if err := tx.insertObject(o); err != nil {
		// Restore the old version so a failed replace leaves the
		// state exactly as it was (the atomicity the method
		// promises). The old object inserted cleanly before, so the
		// restore can only fail on an index I/O error.
		if existed {
			if rerr := tx.insertObject(old); rerr != nil {
				return fmt.Errorf("core: replace failed (%w) and old version not restored: %v", err, rerr)
			}
		}
		return err
	}
	return nil
}

// GuardRegion returns the standing-query guard region for q under
// opts: the index probe region the evaluation method uses — the full
// Minkowski sum R⊕U0 for MethodBasic (its probe never shrinks),
// otherwise shrunk to the Qp-expanded region for threshold queries
// unless opts.DisablePExpansion. The engine's evaluation only ever
// considers objects whose bounding rectangle intersects this region,
// so an update batch none of whose dirty rectangles (old or new
// bounds of every touched object) intersect it provably leaves the
// query's result unchanged. The continuous-query monitor uses this to
// skip re-evaluations.
func GuardRegion(q Query, opts EvalOptions) (geom.Rect, error) {
	if err := q.Validate(); err != nil {
		return geom.Rect{}, err
	}
	if opts.Method == MethodBasic {
		return q.Expanded(), nil
	}
	return newQueryPlan(q, opts, false).searchReg, nil
}
