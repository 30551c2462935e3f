package core

import (
	"sync"

	"repro/internal/uncertain"
)

// sortByID puts c in ascending id order: a stable LSD radix sort on the
// id with its sign bit flipped (so the unsigned byte order is the
// signed order), one counting and one scatter pass per byte, and no
// pass at all for a byte on which every id agrees — a shard's ids
// differ in their low two or three bytes only. The passes scatter back
// and forth between c and tmp, which must be at least as long as c;
// the sorted elements are returned in whichever the last pass wrote (c
// itself, or tmp[:len(c)]). Below radixSortCutoff elements an
// insertion sort in c is cheaper.
func sortByID(c, tmp []NNCandidate) []NNCandidate {
	n := len(c)
	if n < radixSortCutoff {
		for i := 1; i < n; i++ {
			x := c[i]
			j := i
			for ; j > 0 && c[j-1].ID > x.ID; j-- {
				c[j] = c[j-1]
			}
			c[j] = x
		}
		return c
	}
	first := radixKey(c[0])
	var differ uint64
	for i := 1; i < n; i++ {
		differ |= radixKey(c[i]) ^ first
	}
	src, dst := c, tmp[:n]
	for shift := uint(0); shift < 64; shift += 8 {
		if (differ>>shift)&0xff == 0 {
			continue
		}
		var count [256]int
		for i := range src {
			count[byte(radixKey(src[i])>>shift)]++
		}
		pos := 0
		for b, k := range count {
			count[b] = pos
			pos += k
		}
		for i := range src {
			b := byte(radixKey(src[i]) >> shift)
			dst[count[b]] = src[i]
			count[b]++
		}
		src, dst = dst, src
	}
	return src
}

// radixSortCutoff is the length below which sortByID uses insertion
// sort.
const radixSortCutoff = 32

// radixKey is the candidate's id as an unsigned key with the signed
// order.
func radixKey(c NNCandidate) uint64 { return uint64(c.ID) ^ 1<<63 }

// nnScratch is one NN stage's working memory: for a collection the
// candidates as the probe surfaces them and the sort's scatter buffer,
// for a refinement the candidates as the kernel takes them. It is
// pooled, so a collection allocates only the id-ordered list it
// returns, and a refinement only what nn.Refine returns and the
// matches.
type nnScratch struct {
	cands, tmp []NNCandidate
	objs       []uncertain.PointObject
}

var nnScratchPool = sync.Pool{New: func() any { return new(nnScratch) }}

// maxPooledCandidates caps the scratch a pool keeps: a rare collection
// over a huge radius does not pin its buffers for every later one.
const maxPooledCandidates = 1 << 16

func putNNScratch(sc *nnScratch) {
	if max(cap(sc.cands), cap(sc.tmp), cap(sc.objs)) <= maxPooledCandidates {
		nnScratchPool.Put(sc)
	}
}
