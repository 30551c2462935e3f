package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// replayAll collects every record in dir.
func replayAll(t *testing.T, dir string) (ReplayStats, []uint64, [][]byte) {
	t.Helper()
	var versions []uint64
	var payloads [][]byte
	st, err := Replay(dir, func(v uint64, p []byte) error {
		versions = append(versions, v)
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return st, versions, payloads
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range want {
		if err := w.Append(uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	st, versions, payloads := replayAll(t, dir)
	if st.Records != len(want) || st.Truncated || st.LastVersion != uint64(len(want)) {
		t.Fatalf("stats: %+v", st)
	}
	for i, p := range want {
		if versions[i] != uint64(i+1) || !bytes.Equal(payloads[i], p) {
			t.Fatalf("record %d: version=%d payload=%q", i, versions[i], payloads[i])
		}
	}
}

func TestReopenContinues(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, err = Open(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Stats().LastVersion; got != 1 {
		t.Fatalf("LastVersion after reopen = %d", got)
	}
	if err := w.Append(2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, versions, _ := replayAll(t, dir)
	if len(versions) != 2 || versions[1] != 2 {
		t.Fatalf("versions = %v", versions)
	}
}

func TestRotationAndTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every append past the first rotates.
	w, err := Open(dir, Options{Policy: FsyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'x'}, 48)
	const n = 6
	for i := 1; i <= n; i++ {
		if err := w.Append(uint64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}

	// Truncating through version 4 must keep versions 5..n replayable.
	removed, err := w.TruncateThrough(4)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("TruncateThrough removed nothing")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, versions, _ := replayAll(t, dir)
	for _, v := range versions {
		if v <= 4 && v != 0 {
			// Records <= 4 may survive if they share a segment with
			// later ones; what matters is the tail is intact.
			continue
		}
	}
	if len(versions) == 0 || versions[len(versions)-1] != n {
		t.Fatalf("tail lost after truncate: %v", versions)
	}

	// The active segment is never removed, even if fully covered.
	w, err = Open(dir, Options{Policy: FsyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.TruncateThrough(uint64(n)); err != nil {
		t.Fatal(err)
	}
	if segs := w.Stats().Segments; segs < 1 {
		t.Fatalf("log went headless: %d segments", segs)
	}
	w.Close()
}

func TestTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := w.Append(uint64(i), []byte(fmt.Sprintf("batch-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record mid-frame, as a crash during write would.
	path := segmentPath(dir, 1)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	st, versions, _ := replayAll(t, dir)
	if !st.Truncated {
		t.Fatalf("tear not detected: %+v", st)
	}
	if len(versions) != 2 || versions[1] != 2 {
		t.Fatalf("after repair versions = %v", versions)
	}

	// The repair is in place: a second replay sees a clean log and the
	// writer can reopen and append.
	st2, _, _ := replayAll(t, dir)
	if st2.Truncated {
		t.Fatalf("repair did not stick: %+v", st2)
	}
	w, err = Open(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatalf("reopen after repair: %v", err)
	}
	if err := w.Append(3, []byte("again")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, versions, _ = replayAll(t, dir)
	if len(versions) != 3 || versions[2] != 3 {
		t.Fatalf("post-repair append: %v", versions)
	}
}

// TestReplayMemoryBoundedByFrame: replay reads a segment frame by frame
// through one reused buffer, so what it allocates is bounded by the
// largest frame, not by the segment — and a torn tail whose length
// field claims more than the file holds is cut without being read.
func TestReplayMemoryBoundedByFrame(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const records, frameBytes = 2000, 1024
	payload := bytes.Repeat([]byte{'p'}, frameBytes)
	for i := 1; i <= records; i++ {
		if err := w.Append(uint64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn final frame whose header claims a 60 MB payload.
	path := segmentPath(dir, 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := AppendRecord(nil, records+1, make([]byte, 60<<20))[:frameOverhead+10]
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := Replay(dir, func(v uint64, p []byte) error {
		if !bytes.Equal(p, payload) {
			return fmt.Errorf("record %d: payload of %d bytes differs", v, len(p))
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != records || !st.Truncated {
		t.Fatalf("replay: %+v, want %d records and the torn tail cut", st, records)
	}
	// The segment is over 2 MB; the scan's read buffer and one frame
	// are under 70 KB.
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Fatalf("replay of a %d-record segment allocated %d B", records, got)
	}
}

func TestMidLogDamageFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'x'}, 48)
	for i := 1; i <= 4; i++ {
		if err := w.Append(uint64(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) < 2 {
		t.Fatalf("need >=2 segments: %v %v", seqs, err)
	}

	// Flip a payload byte in the first (non-final) segment.
	path := segmentPath(dir, seqs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log damage: err = %v", err)
	}
}

func TestVersionRegressionRejected(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(5, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(5, []byte("b")); err != nil { // duplicate version
		t.Fatal(err)
	}
	w.Close()
	if _, err := Replay(dir, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version regression: err = %v", err)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			var fsyncs int
			w, err := Open(dir, Options{Policy: policy, OnFsync: func(time.Duration) { fsyncs++ }})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(1, []byte("x")); err != nil {
				t.Fatal(err)
			}
			if policy == FsyncAlways && fsyncs != 1 {
				t.Fatalf("FsyncAlways: %d fsyncs after append", fsyncs)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := w.Append(2, nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("append after close: %v", err)
			}
			_, versions, _ := replayAll(t, dir)
			if len(versions) != 1 {
				t.Fatalf("versions = %v", versions)
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever,
	} {
		got, err := ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() round-trip: %q -> %q", s, got.String())
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestReplayMissingDir(t *testing.T) {
	st, err := Replay(t.TempDir()+"/nope", nil)
	if err != nil || st.Records != 0 {
		t.Fatalf("missing dir: %+v, %v", st, err)
	}
}

// FuzzWALRecord cross-checks the frame codec: every encode decodes to
// the same record, and decoding arbitrary bytes never panics and never
// yields a record that re-encodes differently.
func FuzzWALRecord(f *testing.F) {
	f.Add(uint64(1), []byte("hello"))
	f.Add(uint64(0), []byte{})
	f.Add(^uint64(0), bytes.Repeat([]byte{0xFF}, 100))
	f.Fuzz(func(t *testing.T, version uint64, payload []byte) {
		// Round-trip.
		frame := AppendRecord(nil, version, payload)
		v, p, rest, err := DecodeRecord(frame)
		if err != nil {
			t.Fatalf("decode of fresh frame: %v", err)
		}
		if v != version || !bytes.Equal(p, payload) || len(rest) != 0 {
			t.Fatalf("round-trip: v=%d p=%q rest=%d", v, p, len(rest))
		}
		// A second record appends cleanly after the first.
		two := AppendRecord(frame, version+1, payload)
		if _, _, rest, err = DecodeRecord(two); err != nil {
			t.Fatal(err)
		}
		if v2, p2, rest2, err := DecodeRecord(rest); err != nil || v2 != version+1 || !bytes.Equal(p2, payload) || len(rest2) != 0 {
			t.Fatalf("second record: v=%d err=%v", v2, err)
		}
		// Decoding the payload bytes as a frame must not panic, and any
		// successful decode must itself round-trip.
		if v3, p3, _, err := DecodeRecord(payload); err == nil {
			re := AppendRecord(nil, v3, p3)
			if !bytes.Equal(re, payload[:len(re)]) {
				t.Fatalf("lax decode: %x != %x", re, payload[:len(re)])
			}
		}
		// Every truncation of a valid frame is a short record, never a
		// false positive.
		for cut := 0; cut < len(frame); cut++ {
			if _, _, _, err := DecodeRecord(frame[:cut]); err == nil {
				t.Fatalf("truncated frame at %d decoded", cut)
			}
		}
	})
}

// TestTruncateThroughSealsCoveredActiveSegment: a checkpoint through
// every record this writer appended seals the active segment, so the
// log holds none of them and a replay reads nothing; an active segment
// with a newer record, or one found at Open and not appended to, stays.
func TestTruncateThroughSealsCoveredActiveSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 3; v++ {
		if err := w.Append(v, []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if removed, err := w.TruncateThrough(3); err != nil || removed != 1 {
		t.Fatalf("TruncateThrough(3) = %d, %v; want the sealed segment removed", removed, err)
	}
	if st, _, _ := replayAll(t, dir); st.Records != 0 || st.Segments != 1 {
		t.Fatalf("after a covering truncation the log replays %+v", st)
	}
	if err := w.Append(4, []byte("r")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.TruncateThrough(3); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, versions, _ := replayAll(t, dir); len(versions) != 1 || versions[0] != 4 {
		t.Fatalf("record 4 lost: %v", versions)
	}

	// A segment found at Open is not sealed by a truncation alone.
	w, err = Open(dir, Options{Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.TruncateThrough(4); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, versions, _ := replayAll(t, dir); len(versions) != 1 || versions[0] != 4 {
		t.Fatalf("found segment rewritten: %v", versions)
	}
}

// TestReplayRemovesHeaderlessFinalSegment: a final segment shorter than
// its header — a crash between a rotation's create and its header
// write — holds no record; Replay removes it and the log opens.
func TestReplayRemovesHeaderlessFinalSegment(t *testing.T) {
	for _, size := range []int{0, headerSize - 1} {
		dir := t.TempDir()
		w, err := Open(dir, Options{Policy: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(1, []byte("r")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segmentPath(dir, 2), []byte(magic)[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		if st, versions, _ := replayAll(t, dir); len(versions) != 1 || st.Segments != 1 {
			t.Fatalf("header of %d bytes: replayed %v (%+v)", size, versions, st)
		}
		w, err = Open(dir, Options{Policy: FsyncNever})
		if err != nil {
			t.Fatalf("header of %d bytes: %v", size, err)
		}
		if err := w.Append(2, []byte("r")); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if _, versions, _ := replayAll(t, dir); len(versions) != 2 {
			t.Fatalf("header of %d bytes: replayed %v after reopen", size, versions)
		}
	}
}
