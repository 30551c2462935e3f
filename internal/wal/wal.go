// Package wal implements the engine's write-ahead log: an append-only
// sequence of CRC32C-framed records, one per committed ApplyUpdates
// batch, split across fixed-maximum-size segment files. The log is the
// durability half of the checkpoint+WAL scheme (docs/durability.md):
// a batch is appended — and, under FsyncAlways, fsynced — before the
// engine publishes the state it produced, so every published version
// is reconstructible as checkpoint + ordered replay of the records
// after it.
//
// The package is deliberately payload-agnostic: records carry an
// opaque byte payload plus the engine version the batch produced.
// Encoding of the update batch itself lives with the engine
// (internal/core), keeping wal a leaf package with no dependencies
// beyond the standard library.
//
// On-disk format. Each segment file wal-<seq>.log starts with the
// 8-byte magic "ILDQWAL1"; records follow back to back:
//
//	u32  payload length (little endian)
//	u32  CRC32C over the version field and the payload
//	u64  engine version the batch committed as
//	...  payload bytes
//
// A torn write — the crash window this format is designed for — can
// only damage the final frames of the final segment: replay truncates
// the tail at the first bad frame and the log is clean again. A bad
// frame in any non-final segment means real corruption (records after
// it provably committed) and fails recovery loudly.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// FsyncPolicy selects when appended records are forced to stable
// storage. The zero value is FsyncInterval, the group-commit default.
type FsyncPolicy int

const (
	// FsyncInterval syncs on a background cadence (Options.Interval):
	// group commit. A crash loses at most the last interval's batches;
	// recovery is still consistent (prefix of the log).
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every appended record before Append
	// returns: a committed batch is durable the moment its publish is
	// visible. One batch is one group-commit unit — batching updates
	// amortizes the fsync exactly like grouping transactions would.
	FsyncAlways
	// FsyncNever leaves syncing to the operating system (and Close).
	// For benchmarks and tests; a crash can lose any unflushed suffix.
	FsyncNever
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses "always", "interval", or "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

const (
	// frameOverhead is the fixed bytes per record before the payload.
	frameOverhead = 4 + 4 + 8
	// MaxRecordBytes bounds one record's payload; a length field above
	// it is treated as frame corruption rather than attempted as an
	// allocation.
	MaxRecordBytes = 64 << 20

	magic      = "ILDQWAL1"
	headerSize = len(magic)

	// DefaultSegmentBytes is the rotation threshold when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 16 << 20
	// scanBufferBytes is the read buffer of a segment scan.
	scanBufferBytes = 64 << 10

	// DefaultInterval is the FsyncInterval cadence when
	// Options.Interval is zero.
	DefaultInterval = 50 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by the package (wrap-tested with errors.Is).
var (
	ErrClosed      = errors.New("wal: writer closed")
	ErrCorrupt     = errors.New("wal: corrupt segment")
	ErrShortRecord = errors.New("wal: short record")
)

// AppendRecord appends one framed record to buf and returns the
// extended slice. It is the single encoder for the on-disk frame
// format; DecodeRecord is its inverse.
func AppendRecord(buf []byte, version uint64, payload []byte) []byte {
	var hdr [frameOverhead]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], version)
	crc := crc32.Update(0, castagnoli, hdr[8:16])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// DecodeRecord decodes the first framed record in b, returning the
// version, the payload (aliasing b), and the remaining bytes.
// ErrShortRecord means b ends before the frame does (a torn tail);
// ErrCorrupt means the frame is structurally present but fails its
// checksum or length sanity bound.
func DecodeRecord(b []byte) (version uint64, payload, rest []byte, err error) {
	if len(b) < frameOverhead {
		return 0, nil, b, ErrShortRecord
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n > MaxRecordBytes {
		return 0, nil, b, fmt.Errorf("%w: payload length %d exceeds %d", ErrCorrupt, n, MaxRecordBytes)
	}
	if len(b) < frameOverhead+int(n) {
		return 0, nil, b, ErrShortRecord
	}
	want := binary.LittleEndian.Uint32(b[4:8])
	payload = b[frameOverhead : frameOverhead+int(n)]
	crc := crc32.Update(0, castagnoli, b[8:16])
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != want {
		return 0, nil, b, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	version = binary.LittleEndian.Uint64(b[8:16])
	return version, payload, b[frameOverhead+int(n):], nil
}

// Options configures a Writer.
type Options struct {
	// Policy selects the fsync cadence (zero value: FsyncInterval).
	Policy FsyncPolicy
	// Interval is the FsyncInterval group-commit cadence
	// (zero: DefaultInterval).
	Interval time.Duration
	// SegmentBytes rotates to a fresh segment once the active one
	// exceeds this size (zero: DefaultSegmentBytes).
	SegmentBytes int64
	// OnFsync, when set, observes the duration of every fsync — the
	// engine's fsync-latency histogram hook.
	OnFsync func(time.Duration)
	// OnAppend, when set, observes the framed byte size of every
	// appended record — the engine's WAL-bytes counter hook.
	OnAppend func(bytes int)
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	return o
}

// Stats is a point-in-time summary of a Writer.
type Stats struct {
	// Records and Bytes count appends through this Writer (framed
	// bytes, not payload bytes).
	Records int64
	Bytes   int64
	// Segments is the number of segment files currently on disk,
	// ActiveSegment the sequence number of the one being appended to.
	Segments      int
	ActiveSegment uint64
	// LastVersion is the version of the most recent record on disk
	// (appended by this Writer or found at open), 0 if none.
	LastVersion uint64
	// Fsyncs counts explicit syncs issued by this Writer.
	Fsyncs int64
}

// Writer appends records to the log. It is safe for concurrent use;
// appends from distinct goroutines are serialized and land in call
// order. The engine holds its writer lock across Append anyway — WAL
// order must match publish order — so the internal mutex is a
// second line of defense, not the ordering mechanism.
type Writer struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       *os.File
	seq     uint64 // active segment sequence number
	size    int64  // active segment size
	segMax  map[uint64]uint64
	lastVer uint64
	// appended says this writer has appended to the active segment.
	appended bool
	dirty    bool // bytes written since the last sync
	buf      []byte
	closed   bool

	records int64
	bytes   int64
	fsyncs  int64

	stop chan struct{}
	done chan struct{}
}

// Open opens the log in dir for appending, creating the directory and
// the first segment if needed. The log must be clean: recovery
// (Replay, which repairs a torn tail) runs first. Open scans existing
// segments to learn per-segment version bounds — what TruncateThrough
// needs — and fails on any frame error, torn tails included.
func Open(dir string, opts Options) (*Writer, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		dir:    dir,
		opts:   opts,
		segMax: make(map[uint64]uint64),
	}
	for _, seq := range seqs {
		sc, err := scanSegment(segmentPath(dir, seq), nil)
		if err != nil {
			return nil, err
		}
		if sc.torn {
			return nil, fmt.Errorf("%w: %s has a torn tail (run recovery first)", ErrCorrupt, segmentPath(dir, seq))
		}
		if sc.records > 0 {
			w.segMax[seq] = sc.lastVersion
			w.lastVer = sc.lastVersion
		}
	}
	if len(seqs) == 0 {
		w.seq = 1
		if err := w.openSegmentLocked(true); err != nil {
			return nil, err
		}
	} else {
		w.seq = seqs[len(seqs)-1]
		if err := w.openSegmentLocked(false); err != nil {
			return nil, err
		}
	}
	if opts.Policy == FsyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// openSegmentLocked opens (create=false) or creates (create=true) the
// active segment file w.seq for appending.
func (w *Writer) openSegmentLocked(create bool) error {
	path := segmentPath(w.dir, w.seq)
	flags := os.O_WRONLY | os.O_APPEND
	if create {
		flags |= os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	if create {
		if _, err := f.Write([]byte(magic)); err != nil {
			f.Close()
			return err
		}
		w.size = int64(headerSize)
	} else {
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		w.size = fi.Size()
	}
	w.f = f
	return nil
}

// Append logs one record. Under FsyncAlways the record is durable when
// Append returns; under FsyncInterval it becomes durable within one
// interval; under FsyncNever whenever the OS flushes it (or at Close).
func (w *Writer) Append(version uint64, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	w.buf = AppendRecord(w.buf[:0], version, payload)
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	w.size += int64(len(w.buf))
	w.records++
	w.bytes += int64(len(w.buf))
	w.lastVer = version
	w.segMax[w.seq] = version
	w.appended, w.dirty = true, true
	if w.opts.OnAppend != nil {
		w.opts.OnAppend(len(w.buf))
	}
	if w.opts.Policy == FsyncAlways {
		return w.syncLocked()
	}
	return nil
}

// rotateLocked seals the active segment (always synced — rotation is
// rare and a sealed segment should never lose a tail) and starts the
// next one.
func (w *Writer) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.seq++
	w.appended = false
	return w.openSegmentLocked(true)
}

func (w *Writer) syncLocked() error {
	if !w.dirty {
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.fsyncs++
	w.dirty = false
	if w.opts.OnFsync != nil {
		w.opts.OnFsync(time.Since(start))
	}
	return nil
}

// flushLoop is the FsyncInterval group-commit goroutine.
func (w *Writer) flushLoop() {
	defer close(w.done)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed {
				_ = w.syncLocked()
			}
			w.mu.Unlock()
		}
	}
}

// TruncateThrough removes sealed segments whose every record has
// version <= v — the post-checkpoint cleanup. An active segment this
// writer has appended to, none of whose records is newer than v, is
// first sealed and a fresh one started, so after a checkpoint with no
// batch in flight the log holds no record the checkpoint covers and
// the next recovery reads none. (An active segment found at Open and
// not appended to since holds only what that recovery already read; it
// stays.) The active segment is never removed, so the log never
// becomes headless. Returns the number of segment files deleted.
func (w *Writer) TruncateThrough(v uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.appended && w.segMax[w.seq] <= v {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	seqs, err := listSegments(w.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, seq := range seqs {
		if seq == w.seq {
			continue
		}
		// A sealed segment with no recorded max (it held zero records)
		// is dead weight either way.
		if maxV, known := w.segMax[seq]; known && maxV > v {
			continue
		}
		if err := os.Remove(segmentPath(w.dir, seq)); err != nil {
			return removed, err
		}
		delete(w.segMax, seq)
		removed++
	}
	return removed, nil
}

// Stats returns a point-in-time summary.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	segs, _ := listSegments(w.dir)
	return Stats{
		Records:       w.records,
		Bytes:         w.bytes,
		Segments:      len(segs),
		ActiveSegment: w.seq,
		LastVersion:   w.lastVer,
		Fsyncs:        w.fsyncs,
	}
}

// Close syncs outstanding records (under every policy — a clean
// shutdown should never lose acknowledged batches) and closes the
// active segment. Further Appends return ErrClosed.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	stop := w.stop
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-w.done
	}
	return err
}

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	// Segments scanned and Records delivered to the callback.
	Segments int
	Records  int
	// Bytes is the total clean log size after any tail repair.
	Bytes int64
	// LastVersion is the version of the final record, 0 if none.
	LastVersion uint64
	// Truncated reports whether a torn tail was cut from the final
	// segment — the expected crash signature, repaired in place.
	Truncated bool
}

// Replay iterates every record in the log in order, calling fn with
// each record's version and payload (the payload slice is only valid
// during the call). A torn tail on the final segment is truncated in
// place — the crash-recovery repair — and a final segment shorter than
// its header, which a crash during a rotation leaves and which cannot
// hold a record, is removed; any earlier frame damage fails with
// ErrCorrupt. Record versions must be strictly increasing; a
// regression fails loudly rather than replaying garbage. A missing
// directory replays zero records.
func Replay(dir string, fn func(version uint64, payload []byte) error) (ReplayStats, error) {
	var st ReplayStats
	seqs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, err
	}
	for i, seq := range seqs {
		last := i == len(seqs)-1
		path := segmentPath(dir, seq)
		if last {
			if fi, err := os.Stat(path); err != nil {
				return st, err
			} else if fi.Size() < int64(headerSize) {
				return st, os.Remove(path)
			}
		}
		sc, err := scanSegment(path, func(version uint64, payload []byte) error {
			if st.LastVersion != 0 && version <= st.LastVersion {
				return fmt.Errorf("%w: %s: version %d after %d", ErrCorrupt, path, version, st.LastVersion)
			}
			st.Records++
			st.LastVersion = version
			if fn != nil {
				return fn(version, payload)
			}
			return nil
		})
		if err != nil {
			return st, err
		}
		st.Segments++
		if sc.torn {
			if !last {
				return st, fmt.Errorf("%w: %s damaged mid-log (later segments exist)", ErrCorrupt, path)
			}
			if err := os.Truncate(path, sc.goodSize); err != nil {
				return st, err
			}
			st.Truncated = true
			st.Bytes += sc.goodSize
		} else {
			st.Bytes += sc.goodSize
		}
	}
	return st, nil
}

// segScan is one segment's scan result.
type segScan struct {
	records     int
	lastVersion uint64
	// goodSize is the byte offset past the last valid frame; torn
	// reports whether bytes (an unreadable frame) remain after it.
	goodSize int64
	torn     bool
}

// scanSegment reads one segment frame by frame, calling fn per valid
// record; a frame's bytes are read into one buffer reused for the next,
// so the memory a scan holds is bounded by its largest frame, not by
// the segment. A frame error stops the scan and marks the segment torn
// at that offset; the caller decides whether that is a repairable tail
// or corruption. An error from fn aborts the scan as-is.
func scanSegment(path string, fn func(version uint64, payload []byte) error) (segScan, error) {
	var sc segScan
	f, err := os.Open(path)
	if err != nil {
		return sc, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return sc, err
	}
	size := fi.Size()
	r := bufio.NewReaderSize(f, scanBufferBytes)
	var head [headerSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil || string(head[:]) != magic {
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return sc, err
		}
		return sc, fmt.Errorf("%w: %s: bad segment header", ErrCorrupt, path)
	}
	sc.goodSize = int64(headerSize)
	frame := make([]byte, frameOverhead)
	for sc.goodSize < size {
		// A frame that cannot fit in what is left of the file is torn;
		// the length is checked before any payload is read, so a
		// damaged length field never sizes the buffer.
		left := size - sc.goodSize
		if left < frameOverhead {
			sc.torn = true
			return sc, nil
		}
		frame = frame[:frameOverhead]
		if _, err := io.ReadFull(r, frame); err != nil {
			return sc, tornOr(&sc, err)
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		if n > MaxRecordBytes || left < frameOverhead+int64(n) {
			sc.torn = true
			return sc, nil
		}
		frame = slices.Grow(frame, int(n))[:frameOverhead+int(n)]
		if _, err := io.ReadFull(r, frame[frameOverhead:]); err != nil {
			return sc, tornOr(&sc, err)
		}
		version, payload, _, err := DecodeRecord(frame)
		if err != nil {
			sc.torn = true
			return sc, nil
		}
		if fn != nil {
			if err := fn(version, payload); err != nil {
				return sc, err
			}
		}
		sc.records++
		sc.lastVersion = version
		sc.goodSize += int64(len(frame))
	}
	return sc, nil
}

// tornOr marks the scan torn when a read ended early — the file shrank
// under the scan — and passes any other read error through.
func tornOr(sc *segScan, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		sc.torn = true
		return nil
	}
	return err
}

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", seq))
}

// listSegments returns the segment sequence numbers present in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, ent := range ents {
		var seq uint64
		if n, err := fmt.Sscanf(ent.Name(), "wal-%d.log", &seq); n == 1 && err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}
