package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// streamBytes is everything a seed determines, as the bytes that would
// go on the wire: the bulk load, then requests of every kind and move
// batches from two lanes.
func streamBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	wd := genWorld(300, 300)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	put := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	put(wd.loadBatches())
	for lane := range 2 {
		qs := newQueryStream(wd, seed, "range_ro", lane)
		mv := newMover(wd, seed, "ingest_standing/moves", lane, 2)
		for range 50 {
			put(qs.next("uncertain"))
			put(qs.next("nn"))
			put(mv.next())
		}
	}
	return buf.Bytes()
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b, c := streamBytes(t, 7), streamBytes(t, 7), streamBytes(t, 8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed produced different request streams")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced the same request streams")
	}
}

func TestMoversOwnDisjointIDs(t *testing.T) {
	wd := genWorld(101, 57) // sizes not divisible by the lane count
	for lane := range 3 {
		mv := newMover(wd, 1, "moves", lane, 3)
		for range 200 {
			for _, u := range mv.next() {
				n := len(wd.rects)
				if u.Op == "upsert_point" {
					n = len(wd.points)
				}
				if int(u.ID)%3 != lane || int(u.ID) >= n {
					t.Fatalf("lane %d moved %s %d of %d", lane, u.Op, u.ID, n)
				}
			}
		}
	}
}

func TestLaneSeedsDiffer(t *testing.T) {
	seen := map[int64]string{}
	for _, seed := range []int64{1, 2} {
		for _, label := range []string{"range_ro", "nn_ro", "check"} {
			for lane := range 3 {
				s := laneSeed(seed, label, lane)
				if s < 0 {
					t.Errorf("laneSeed(%d, %s, %d) = %d is negative", seed, label, lane, s)
				}
				if prev, dup := seen[s]; dup {
					t.Errorf("laneSeed collision: %s and %d/%s/%d", prev, seed, label, lane)
				}
				seen[s] = label
			}
		}
	}
}
