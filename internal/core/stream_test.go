package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// streamBatch builds a mixed point/uncertain workload over the shared
// concurrency world.
func streamBatch(t *testing.T, n int, seed int64) []BatchQuery {
	t.Helper()
	queries := concurrencyQueries(t, n, seed)
	batch := make([]BatchQuery, len(queries))
	for i, q := range queries {
		target := TargetUncertain
		if i%3 == 0 {
			target = TargetPoints
		}
		batch[i] = BatchQuery{Query: q, Target: target}
	}
	return batch
}

// TestEvaluateBatchStreamMatchesBatch: streaming delivery must produce
// exactly the results of EvaluateBatch — same seeds, same per-query
// derived streams — at every worker count, just without the slice.
func TestEvaluateBatchStreamMatchesBatch(t *testing.T) {
	mem, paged := concurrencyWorld(t, 611)
	batch := streamBatch(t, 18, 612)

	for name, e := range map[string]*Engine{"mem": mem, "paged": paged} {
		e := e
		t.Run(name, func(t *testing.T) {
			want := e.EvaluateBatch(batch, EvalOptions{Rng: rand.New(rand.NewSource(88))}, 1)
			for _, workers := range []int{1, 4} {
				got := make([]BatchResult, len(batch))
				seen := make([]bool, len(batch))
				err := e.EvaluateBatchStream(context.Background(), batch,
					EvalOptions{Rng: rand.New(rand.NewSource(88))}, workers,
					func(i int, br BatchResult) {
						if seen[i] {
							t.Errorf("query %d delivered twice", i)
						}
						seen[i] = true
						got[i] = br
					})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				for i := range batch {
					if !seen[i] {
						t.Fatalf("workers=%d: query %d never delivered", workers, i)
					}
					if got[i].Err != nil || want[i].Err != nil {
						t.Fatalf("workers=%d query %d: err %v / %v", workers, i, got[i].Err, want[i].Err)
					}
					checkSameResult(t, batch[i].Target.String(), want[i].Result, got[i].Result)
				}
			}
		})
	}
}

// TestEvaluateBatchStreamPerQueryDeadline: with an already-expired
// per-query timeout every query must deliver context.DeadlineExceeded
// — and the batch itself still completes (the deadline is per query,
// not per batch).
func TestEvaluateBatchStreamPerQueryDeadline(t *testing.T) {
	mem, _ := concurrencyWorld(t, 613)
	batch := streamBatch(t, 10, 614)

	var delivered, failed int
	err := mem.EvaluateBatchStream(context.Background(), batch,
		EvalOptions{Timeout: time.Nanosecond}, 2,
		func(i int, br BatchResult) {
			delivered++
			if errors.Is(br.Err, context.DeadlineExceeded) {
				failed++
			} else if br.Err != nil {
				t.Errorf("query %d: unexpected error %v", i, br.Err)
			}
		})
	if err != nil {
		t.Fatalf("stream returned %v; per-query deadlines must not cancel the batch", err)
	}
	if delivered != len(batch) {
		t.Fatalf("delivered %d of %d", delivered, len(batch))
	}
	if failed != len(batch) {
		t.Fatalf("%d of %d queries hit the 1ns deadline", failed, len(batch))
	}

	// Sanity: a generous timeout lets everything through.
	err = mem.EvaluateBatchStream(context.Background(), batch,
		EvalOptions{Timeout: time.Minute}, 2,
		func(i int, br BatchResult) {
			if br.Err != nil {
				t.Errorf("query %d: %v", i, br.Err)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEvaluateBatchStreamCancel: cancelling the batch context stops
// dispatch and EvaluateBatchStream reports the cancellation.
func TestEvaluateBatchStreamCancel(t *testing.T) {
	mem, _ := concurrencyWorld(t, 615)
	batch := streamBatch(t, 64, 616)

	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	delivered := 0
	err := mem.EvaluateBatchStream(ctx, batch, EvalOptions{}, 2,
		func(i int, br BatchResult) {
			mu.Lock()
			delivered++
			if delivered == 3 {
				cancel()
			}
			mu.Unlock()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stream returned %v, want context.Canceled", err)
	}
	if delivered >= len(batch) {
		t.Fatalf("cancellation did not stop dispatch (%d delivered)", delivered)
	}

	// An engine is still fully usable after a cancelled batch.
	res, err := mem.EvaluateUncertain(batch[1].Query, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
}

// TestEvaluateContextCancelled: the single-query context entry points
// observe an already-cancelled context.
func TestEvaluateContextCancelled(t *testing.T) {
	mem, _ := concurrencyWorld(t, 617)
	q := concurrencyQueries(t, 1, 618)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mem.EvaluateUncertainContext(ctx, q, EvalOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateUncertainContext = %v, want context.Canceled", err)
	}
	if _, err := mem.EvaluatePointsContext(ctx, q, EvalOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluatePointsContext = %v, want context.Canceled", err)
	}
	// Basic method too.
	if _, err := mem.EvaluateUncertainContext(ctx, q, EvalOptions{Method: MethodBasic}); !errors.Is(err, context.Canceled) {
		t.Fatalf("basic EvaluateUncertainContext = %v, want context.Canceled", err)
	}
}

// TestEvaluateBatchStreamNilHandler: a nil handler discards results
// without panicking (load-generation mode).
func TestEvaluateBatchStreamNilHandler(t *testing.T) {
	mem, _ := concurrencyWorld(t, 619)
	batch := streamBatch(t, 6, 620)
	if err := mem.EvaluateBatchStream(context.Background(), batch, EvalOptions{}, 3, nil); err != nil {
		t.Fatal(err)
	}
}
