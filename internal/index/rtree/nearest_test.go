package rtree

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is the container/heap frontier bbHeap's typed push and pop
// replaced.
type refHeap []bbEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].prio < h[j].prio }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(bbEntry)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// TestBBHeapMatchesContainerHeap: on random interleavings of pushes and
// pops over priorities with many ties, the typed frontier pops exactly
// the entries container/heap pops, in the same order — Ref tells tied
// entries apart — so tau and node_accesses cannot move.
func TestBBHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 300; round++ {
		levels := 1 + rng.Intn(8) // few distinct priorities: ties everywhere
		var got bbHeap
		var want refHeap
		next := Ref(0)
		for op := 0; op < 2000; op++ {
			if rng.Intn(3) > 0 || len(want) == 0 {
				x := bbEntry{prio: float64(rng.Intn(levels)), e: Entry{Ref: next}, leaf: rng.Intn(2) == 0}
				next++
				got.push(x)
				heap.Push(&want, x)
				continue
			}
			g, w := got.pop(), heap.Pop(&want).(bbEntry)
			if g != w {
				t.Fatalf("round %d op %d: pop %+v, container/heap pops %+v", round, op, g, w)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d left, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: heap slot %d = %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
}
