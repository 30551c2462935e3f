package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index/rtree"
	"repro/internal/wal"
)

// Durable lifecycle. Open attaches a write-ahead log and checkpointed
// snapshots to the MVCC engine:
//
//   - every committed update batch appends one WAL record (the
//     batch's effective primitive updates, see durcodec.go) before
//     its state pointer swap becomes visible;
//   - Checkpoint serializes a pinned sealed state to a paged
//     checkpoint file (see checkpoint.go) concurrently with writers,
//     repoints CURRENT, and truncates the WAL through the
//     checkpointed version;
//   - Open recovers by loading the CURRENT checkpoint and replaying
//     the WAL tail through the ordinary ApplyUpdates path.
//
// Recovery is bit-exact in the sense the engine's determinism
// contract defines: the recovered engine has the same Version, and —
// because qualifying probabilities are computed from per-candidate-id
// sample streams, independent of index shape — every evaluation
// returns bit-identical results to the pre-crash engine, even though
// the replayed tree may be physically different.
//
// Directory layout under the Open dir:
//
//	CURRENT                     JSON pointer to the live checkpoint
//	checkpoint-<version>.ckpt   paged checkpoint files
//	wal/wal-<seq>.log           WAL segments
//
// Engines built with NewEngine remain ephemeral: no WAL, no
// checkpoints, Close is a no-op.

// FsyncPolicy re-exports the WAL's group-commit policy at the engine
// API level.
type FsyncPolicy = wal.FsyncPolicy

const (
	// FsyncInterval (the default) groups commits: an appender returns
	// as soon as the record is in the OS page cache and a background
	// flusher fsyncs on a timer, bounding the loss window to one
	// interval.
	FsyncInterval = wal.FsyncInterval
	// FsyncAlways fsyncs inside every append: no committed batch is
	// ever lost, at a per-batch latency cost.
	FsyncAlways = wal.FsyncAlways
	// FsyncNever leaves flushing to the OS entirely (plus one sync on
	// Close); a crash may lose recent batches but never corrupts.
	FsyncNever = wal.FsyncNever
)

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return wal.ParseFsyncPolicy(s) }

// ErrClosed is returned by operations on an engine after Close.
var ErrClosed = errors.New("core: engine closed")

// ErrEphemeral is returned by durability operations on an engine
// built with NewEngine instead of Open.
var ErrEphemeral = errors.New("core: engine has no durability (built with NewEngine, not Open)")

// durability is the engine's attached durability state; nil on
// ephemeral engines.
type durability struct {
	dir             string
	w               *wal.Writer
	checkpointEvery int

	// scratch is the WAL payload encode buffer, reused across batches;
	// only touched under writeMu (logBatchLocked).
	scratch []byte

	// ckptMu serializes checkpoints (manual, automatic, and final).
	ckptMu sync.Mutex
	// wg tracks the in-flight automatic checkpoint goroutine.
	wg          sync.WaitGroup
	closed      atomic.Bool
	ckptRunning atomic.Bool
	// batchesSinceCkpt counts WAL-logged batches not yet covered by a
	// checkpoint — the automatic-checkpoint trigger.
	batchesSinceCkpt atomic.Int64

	statMu          sync.Mutex
	lastCkptVersion uint64
	lastCkptAt      time.Time
	replayedAtBoot  int
	recoveryTime    time.Duration

	// openDevice builds the store a checkpoint is written to;
	// overridden by crash-injection tests.
	openDevice func(path string) (checkpointDevice, error)

	met *engineMetrics
}

const walSubdir = "wal"

// Open opens (or creates) a durable engine rooted at dir. A non-empty
// directory is recovered: the CURRENT checkpoint is loaded and the
// WAL tail replayed, restoring exactly the committed state — same
// Version, same evaluation results. Node stores in opts must be
// fresh (empty); nil selects in-memory stores as in NewEngine.
// CatalogProbs, when set on a recovering Open, must match the
// checkpointed catalog.
//
// The returned engine logs every committed update batch to the WAL
// under opts.FsyncPolicy and checkpoints automatically every
// opts.CheckpointEvery batches (0 = only on Close or explicit
// Checkpoint calls). Close it to flush and write a final checkpoint.
func Open(dir string, opts EngineOptions) (*Engine, error) {
	start := time.Now()
	if dir == "" {
		return nil, fmt.Errorf("core: Open requires a data directory")
	}
	walDir := filepath.Join(dir, walSubdir)
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating data directory: %w", err)
	}
	if err := removeStaleTmp(dir); err != nil {
		return nil, err
	}
	if opts.PointNodeStore == nil {
		opts.PointNodeStore = rtree.NewMemNodeStore()
	}
	if opts.UncertainNodeStore == nil {
		opts.UncertainNodeStore = rtree.NewMemNodeStore()
	}

	cur, haveCkpt, err := readCurrent(dir)
	if err != nil {
		return nil, err
	}
	var e *Engine
	if haveCkpt {
		st, err := loadCheckpoint(filepath.Join(dir, cur.File), opts)
		if err != nil {
			return nil, fmt.Errorf("core: loading checkpoint %s: %w", cur.File, err)
		}
		if opts.CatalogProbs != nil && !slices.Equal(opts.CatalogProbs, st.probs) {
			return nil, fmt.Errorf("core: CatalogProbs differ from the checkpointed catalog")
		}
		e = newEngineFromState(st, opts.MaxSnapshotAge)
	} else {
		if e, err = NewEngine(nil, nil, opts); err != nil {
			return nil, err
		}
	}

	// Replay the WAL tail through the ordinary update path. e.dur is
	// still nil, so replayed batches are not re-logged. Records at or
	// below the checkpoint version are tail remnants of the active
	// segment truncation could not remove; skip them.
	replayed := 0
	if _, err := wal.Replay(walDir, func(version uint64, payload []byte) error {
		cv := e.Version()
		if version <= cv {
			return nil
		}
		if version != cv+1 {
			return fmt.Errorf("core: wal gap: engine at version %d, next record %d", cv, version)
		}
		updates, err := decodeBatch(payload)
		if err != nil {
			return err
		}
		rep := e.ApplyUpdates(updates)
		if len(rep.Errors) > 0 {
			return fmt.Errorf("core: replaying wal record %d: %w", version, rep.Errors[0].Err)
		}
		if rep.Version != version {
			return fmt.Errorf("core: wal record %d replayed to version %d", version, rep.Version)
		}
		replayed++
		return nil
	}); err != nil {
		return nil, err
	}

	w, err := wal.Open(walDir, wal.Options{
		Policy:   opts.FsyncPolicy,
		Interval: opts.FsyncInterval,
		OnFsync: func(d time.Duration) {
			e.met.walFsyncs.Add(1)
			e.met.fsyncLatency.ObserveDuration(d)
		},
		OnAppend: func(n int) {
			e.met.walAppends.Add(1)
			e.met.walBytes.Add(int64(n))
		},
	})
	if err != nil {
		return nil, err
	}

	d := &durability{
		dir:             dir,
		w:               w,
		checkpointEvery: opts.CheckpointEvery,
		replayedAtBoot:  replayed,
		openDevice:      openFileDevice,
		met:             e.met,
	}
	if haveCkpt {
		d.lastCkptVersion = cur.Version
		d.lastCkptAt = cur.Written
	}
	d.batchesSinceCkpt.Store(int64(replayed))
	d.recoveryTime = time.Since(start)
	e.dur = d
	return e, nil
}

// removeStaleTmp clears temp files a crash mid-checkpoint (or
// mid-CURRENT update) left behind.
func removeStaleTmp(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// logBatchLocked appends one committed batch to the WAL. Called under
// writeMu from publishLocked, before the state pointer swap: an
// append failure aborts the publish, so a version the WAL does not
// hold is never visible.
func (e *Engine) logBatchLocked(version uint64, updates []Update) error {
	d := e.dur
	buf, err := appendBatch(d.scratch[:0], updates)
	if err != nil {
		return err
	}
	d.scratch = buf
	if err := d.w.Append(version, buf); err != nil {
		return err
	}
	n := d.batchesSinceCkpt.Add(1)
	if d.checkpointEvery > 0 && n >= int64(d.checkpointEvery) &&
		!d.closed.Load() && d.ckptRunning.CompareAndSwap(false, true) {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			defer d.ckptRunning.Store(false)
			// Best-effort: a failed automatic checkpoint leaves the WAL
			// longer but loses nothing; the next trigger retries.
			_, _ = e.checkpoint(context.Background())
		}()
	}
	return nil
}

// CheckpointInfo reports one checkpoint's outcome.
type CheckpointInfo struct {
	// Version is the engine version the checkpoint captured.
	Version uint64
	// Skipped is true when the version was already checkpointed and
	// no file was written.
	Skipped bool
	// Duration is the wall-clock time of the checkpoint write.
	Duration time.Duration
	// Pages is the size of the checkpoint file in storage pages.
	Pages int
	// WALSegmentsRemoved counts sealed WAL segments truncation freed.
	WALSegmentsRemoved int
}

// Checkpoint writes a checkpoint of the current version and truncates
// the WAL through it. It runs concurrently with both readers and
// writers — the state it serializes is a pinned MVCC snapshot —
// and serializes with other checkpoints.
func (e *Engine) Checkpoint(ctx context.Context) (CheckpointInfo, error) {
	if e.dur == nil {
		return CheckpointInfo{}, ErrEphemeral
	}
	if e.dur.closed.Load() {
		return CheckpointInfo{}, ErrClosed
	}
	return e.checkpoint(ctx)
}

func (e *Engine) checkpoint(ctx context.Context) (CheckpointInfo, error) {
	d := e.dur
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()

	snap := e.Snapshot()
	defer snap.Close()
	version := snap.st.version

	d.statMu.Lock()
	last := d.lastCkptVersion
	d.statMu.Unlock()
	if version == last {
		return CheckpointInfo{Version: version, Skipped: true}, nil
	}

	start := time.Now()
	covered := d.batchesSinceCkpt.Load()
	file := fmt.Sprintf("checkpoint-%016d.ckpt", version)
	tmp := filepath.Join(d.dir, file+".tmp")
	dev, err := d.openDevice(tmp)
	if err != nil {
		return CheckpointInfo{}, err
	}
	pages, err := writeCheckpoint(ctx, dev, snap.st)
	cerr := dev.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return CheckpointInfo{}, fmt.Errorf("core: writing checkpoint %d: %w", version, err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, file)); err != nil {
		os.Remove(tmp)
		return CheckpointInfo{}, err
	}
	// writeCurrent's directory sync makes both renames durable before
	// the WAL below is truncated.
	if err := writeCurrent(d.dir, file, version); err != nil {
		return CheckpointInfo{}, err
	}
	removed, err := d.w.TruncateThrough(version)
	if err != nil {
		return CheckpointInfo{}, err
	}
	d.pruneCheckpoints(file)

	elapsed := time.Since(start)
	d.met.checkpoints.Add(1)
	d.met.checkpointDur.ObserveDuration(elapsed)
	d.batchesSinceCkpt.Add(-covered)
	d.statMu.Lock()
	d.lastCkptVersion = version
	d.lastCkptAt = time.Now()
	d.statMu.Unlock()
	return CheckpointInfo{Version: version, Duration: elapsed, Pages: pages, WALSegmentsRemoved: removed}, nil
}

// pruneCheckpoints removes checkpoint files other than keep, which
// CURRENT already points past. Best-effort: a leftover file wastes
// disk but is never loaded.
func (d *durability) pruneCheckpoints(keep string) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		name := ent.Name()
		if name == keep || ent.IsDir() {
			continue
		}
		if strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".ckpt") {
			os.Remove(filepath.Join(d.dir, name))
		}
	}
}

// Close flushes the WAL, writes a final checkpoint covering every
// committed batch, and releases the engine's durability resources.
// Ephemeral engines Close as a no-op; closing twice is safe. Update
// batches committed after Close begins may fail with the WAL's closed
// error; none are lost silently.
func (e *Engine) Close() error {
	d := e.dur
	if d == nil {
		return nil
	}
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	d.wg.Wait()
	var errs []error
	d.statMu.Lock()
	last := d.lastCkptVersion
	d.statMu.Unlock()
	if e.Version() > last {
		if _, err := e.checkpoint(context.Background()); err != nil {
			errs = append(errs, err)
		}
	}
	// Close syncs the WAL under every policy, so even a failed final
	// checkpoint loses nothing: the log holds the tail.
	if err := d.w.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// DurabilityStats describes the engine's durability state; Enabled is
// false (and everything else zero) for ephemeral engines.
type DurabilityStats struct {
	Enabled bool
	// Dir is the data directory the engine was opened on.
	Dir string
	// LastCheckpointVersion and LastCheckpointAt describe the live
	// checkpoint (zero when none has been written yet).
	LastCheckpointVersion uint64
	LastCheckpointAt      time.Time
	// Checkpoints counts checkpoints completed by this process.
	Checkpoints int64
	// BatchesSinceCheckpoint is the WAL-replay debt a crash right now
	// would incur.
	BatchesSinceCheckpoint int64
	// WALReplayedAtBoot counts the WAL records recovery replayed when
	// this engine was opened; RecoveryTime is how long the whole Open
	// (checkpoint load + replay) took.
	WALReplayedAtBoot int
	RecoveryTime      time.Duration
	// WAL is the live log's counters.
	WAL wal.Stats
}

// DurabilityStats returns the engine's durability counters.
func (e *Engine) DurabilityStats() DurabilityStats {
	d := e.dur
	if d == nil {
		return DurabilityStats{}
	}
	d.statMu.Lock()
	s := DurabilityStats{
		Enabled:                true,
		Dir:                    d.dir,
		LastCheckpointVersion:  d.lastCkptVersion,
		LastCheckpointAt:       d.lastCkptAt,
		Checkpoints:            d.met.checkpoints.Load(),
		BatchesSinceCheckpoint: d.batchesSinceCkpt.Load(),
		WALReplayedAtBoot:      d.replayedAtBoot,
		RecoveryTime:           d.recoveryTime,
	}
	d.statMu.Unlock()
	s.WAL = d.w.Stats()
	return s
}
