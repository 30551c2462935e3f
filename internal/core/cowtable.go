package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/uncertain"
)

// cowTable is the engine's persistent object table: an immutable,
// bucketed map from object id to value. A published table is never
// modified; mutation goes through a tableTxn, which copies what it
// touches and shares the rest, so an update batch pays O(touched
// buckets) — not O(table), and not O(bucket count) either — to produce
// the next version while readers keep the old one.
//
// Buckets hold id-sorted slices: Get is a binary search within one
// bucket, and bucket copies are flat memmoves. The bucket headers are
// reached through a two-level spine — a top slice of pages of
// tablePageBuckets headers each — so a txn copies the top (a few
// hundred bytes even for a table of millions) plus one page per group
// of buckets it touches, where a flat spine cost 24 bytes per bucket of
// the whole table on every batch. The bucket count is a power of two,
// sized at construction for ~tableBucketFill entries per bucket and
// doubled by the txn whose inserts push the average fill past that
// (maybeGrow).
type cowTable[V any] struct {
	mask  uint64
	pages [][][]tabEntry[V] // bucket b is pages[b>>tablePageShift][b&tablePageMask]
	size  int
}

type tabEntry[V any] struct {
	id  uncertain.ID
	val V
}

// tableBucketFill is the target entries-per-bucket: the initial
// bucket count is sized so fill stays at or below it, and a tableTxn
// whose inserts push the average fill past it doubles the bucket count
// (see maybeGrow) — so per-update bucket-copy cost stays O(fill) no
// matter how far past its construction size the dataset grows.
const tableBucketFill = 32

// A spine page holds tablePageBuckets bucket headers (384 bytes): small
// enough that copying the pages a batch touches is cheap, large enough
// that the top stays tiny (1.5 KB for the 1 024 buckets of a 30 000-entry
// table).
const (
	tablePageShift   = 4
	tablePageBuckets = 1 << tablePageShift
	tablePageMask    = tablePageBuckets - 1
)

// newCowTable builds a table sized for roughly n entries. The bucket
// count is floored at 64 so an engine built over a small (or empty)
// initial dataset and grown through updates keeps bucket copies cheap
// well past 2K entries; past that, transactions resize on growth.
func newCowTable[V any](n int) *cowTable[V] {
	b := 64
	for b*tableBucketFill < n {
		b <<= 1
	}
	return newCowTableBuckets[V](b)
}

// newCowTableBuckets builds an empty table of nb buckets (a power of
// two, at least tablePageBuckets).
func newCowTableBuckets[V any](nb int) *cowTable[V] {
	t := &cowTable[V]{mask: uint64(nb - 1), pages: make([][][]tabEntry[V], nb/tablePageBuckets)}
	for i := range t.pages {
		t.pages[i] = make([][]tabEntry[V], tablePageBuckets)
	}
	return t
}

// numBuckets returns the bucket count.
func (t *cowTable[V]) numBuckets() int { return len(t.pages) * tablePageBuckets }

// bucket returns bucket b's entries.
func (t *cowTable[V]) bucket(b int) []tabEntry[V] {
	return t.pages[b>>tablePageShift][b&tablePageMask]
}

// setBucket replaces bucket b's header; the caller owns b's page.
func (t *cowTable[V]) setBucket(b int, s []tabEntry[V]) {
	t.pages[b>>tablePageShift][b&tablePageMask] = s
}

func (t *cowTable[V]) bucketOf(id uncertain.ID) int {
	// splitmix-style finalizer: sequential dataset ids spread evenly
	// even when the bucket count exceeds the id range density.
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x & t.mask)
}

// find returns the entry's position in its bucket and whether it is
// present.
func (t *cowTable[V]) find(id uncertain.ID) (bucket, pos int, ok bool) {
	b := t.bucketOf(id)
	s := t.bucket(b)
	i := sort.Search(len(s), func(i int) bool { return s[i].id >= id })
	return b, i, i < len(s) && s[i].id == id
}

// Get returns the value stored under id.
func (t *cowTable[V]) Get(id uncertain.ID) (V, bool) {
	b, i, ok := t.find(id)
	if !ok {
		var zero V
		return zero, false
	}
	return t.bucket(b)[i].val, true
}

// Len returns the number of stored entries.
func (t *cowTable[V]) Len() int { return t.size }

// Range calls fn for every entry until fn returns false. Iteration
// order is unspecified but deterministic for a given table.
func (t *cowTable[V]) Range(fn func(id uncertain.ID, v V) bool) {
	for _, page := range t.pages {
		for _, b := range page {
			for _, e := range b {
				if !fn(e.id, e.val) {
					return
				}
			}
		}
	}
}

// put inserts or replaces in place — construction-time only, before
// the table is published.
func (t *cowTable[V]) put(id uncertain.ID, v V) {
	b, i, ok := t.find(id)
	if ok {
		t.bucket(b)[i].val = v
		return
	}
	t.setBucket(b, slices.Insert(t.bucket(b), i, tabEntry[V]{id: id, val: v}))
	t.size++
}

// tableLoader fills a table under construction from rows that arrive
// bucket by bucket, each bucket in id order — the order Range emits for
// a table of the same bucket count, which is how a checkpoint section
// lists its rows. It gathers one bucket's rows and stores them in one
// exactly-sized slice. A row that breaks the order (a table written
// with another bucket count, or a reordered file) goes through put
// instead, and done trims what put leaves spare.
type tableLoader[V any] struct {
	tab    *cowTable[V]
	what   string // the row kind, for the duplicate-id error
	run    []tabEntry[V]
	bucket int
}

// add takes one row; a row whose id the table already holds is refused.
func (l *tableLoader[V]) add(id uncertain.ID, v V) error {
	b := l.tab.bucketOf(id)
	if n := len(l.run); n > 0 && (b != l.bucket || id <= l.run[n-1].id) {
		if err := l.flush(); err != nil {
			return err
		}
	}
	l.bucket = b
	l.run = append(l.run, tabEntry[V]{id: id, val: v})
	return nil
}

// flush stores the gathered run: whole into its bucket when that is
// still empty, row by row otherwise.
func (l *tableLoader[V]) flush() error {
	t := l.tab
	if len(t.bucket(l.bucket)) == 0 {
		t.setBucket(l.bucket, exactCopy(l.run))
		t.size += len(l.run)
	} else {
		for _, e := range l.run {
			if _, dup := t.Get(e.id); dup {
				return fmt.Errorf("%w: %s %d listed twice", errInconsistentCheckpoint, l.what, e.id)
			}
			t.put(e.id, e.val)
		}
	}
	l.run = l.run[:0]
	return nil
}

// done stores the last run and returns the built table.
func (l *tableLoader[V]) done() (*cowTable[V], error) {
	if len(l.run) > 0 {
		if err := l.flush(); err != nil {
			return nil, err
		}
	}
	l.tab.fit()
	return l.tab, nil
}

// fit trims every bucket to its length — construction-time only, once
// put is done: put grows buckets by append, which leaves up to half of
// each one spare, where a txn copies a bucket with room for one entry.
func (t *cowTable[V]) fit() {
	for _, page := range t.pages {
		for i, b := range page {
			if cap(b) > len(b) {
				page[i] = exactCopy(b)
			}
		}
	}
}

// exactCopy copies a bucket into a slice whose capacity is its length
// (slices.Clone may round the capacity up to the allocation's size).
func exactCopy[V any](s []tabEntry[V]) []tabEntry[V] {
	out := make([]tabEntry[V], len(s))
	copy(out, s)
	return out
}

// tableTxn builds the next version of a table copy-on-write: the top
// of the spine is copied at construction, each spine page and each
// bucket on first touch. The base table is never modified. A txn whose
// inserts overfill the table rebuilds it with twice the buckets (grown
// tables own everything, so later touches stop copying).
type tableTxn[V any] struct {
	tab *cowTable[V]
	// own marks what the txn has copied and may now write in place:
	// bit b for bucket b, bit numBuckets+p for spine page p. Nil once
	// the txn has rebuilt the table and owns all of it.
	own []uint64
}

// newTableTxn starts a mutation over base.
func newTableTxn[V any](base *cowTable[V]) *tableTxn[V] {
	next := &cowTable[V]{
		mask:  base.mask,
		pages: slices.Clone(base.pages),
		size:  base.size,
	}
	return &tableTxn[V]{tab: next, own: make([]uint64, (base.numBuckets()+len(base.pages)+63)/64)}
}

// claim marks bit i owned, reporting whether it already was.
func (tx *tableTxn[V]) claim(i int) bool {
	w, m := &tx.own[i>>6], uint64(1)<<(i&63)
	had := *w&m != 0
	*w |= m
	return had
}

// ownBucket returns bucket b's slice, writable in place: on first touch
// the txn copies the bucket (with room for one insert) and, if it has
// not yet, the spine page holding its header.
func (tx *tableTxn[V]) ownBucket(b int) []tabEntry[V] {
	t := tx.tab
	if tx.own == nil || tx.claim(b) {
		return t.bucket(b)
	}
	if p := b >> tablePageShift; !tx.claim(t.numBuckets() + p) {
		t.pages[p] = slices.Clone(t.pages[p])
	}
	src := t.bucket(b)
	cp := make([]tabEntry[V], len(src), len(src)+1)
	copy(cp, src)
	t.setBucket(b, cp)
	return cp
}

// maybeGrow doubles the bucket count once the average fill exceeds
// tableBucketFill, rehashing every entry into a freshly built table.
// Growth happens inside an unpublished txn, so readers of the base
// table are unaffected; the O(n) rebuild amortizes over the >= n/2
// inserts since the last doubling. Splitting on one extra mask bit
// sends each bucket's id-sorted entries to exactly two destination
// buckets in order, so buckets stay sorted without re-sorting.
func (tx *tableTxn[V]) maybeGrow() {
	t := tx.tab
	if t.size <= t.numBuckets()*tableBucketFill {
		return
	}
	nb := t.numBuckets()
	for t.size > nb*tableBucketFill {
		nb <<= 1
	}
	next := newCowTableBuckets[V](nb)
	next.size = t.size
	t.Range(func(id uncertain.ID, v V) bool {
		i := next.bucketOf(id)
		next.setBucket(i, append(next.bucket(i), tabEntry[V]{id: id, val: v}))
		return true
	})
	tx.tab = next
	tx.own = nil
}

// Get reads through the txn's current state.
func (tx *tableTxn[V]) Get(id uncertain.ID) (V, bool) { return tx.tab.Get(id) }

// Put inserts or replaces id's value.
func (tx *tableTxn[V]) Put(id uncertain.ID, v V) {
	b, i, ok := tx.tab.find(id)
	s := tx.ownBucket(b)
	if ok {
		s[i].val = v
		return
	}
	tx.tab.setBucket(b, slices.Insert(s, i, tabEntry[V]{id: id, val: v}))
	tx.tab.size++
	tx.maybeGrow()
}

// Delete removes id, reporting whether it was present.
func (tx *tableTxn[V]) Delete(id uncertain.ID) bool {
	b, i, ok := tx.tab.find(id)
	if !ok {
		return false
	}
	tx.tab.setBucket(b, slices.Delete(tx.ownBucket(b), i, i+1))
	tx.tab.size--
	return true
}

// Commit returns the built table. The txn must not be used afterwards.
func (tx *tableTxn[V]) Commit() *cowTable[V] { return tx.tab }
