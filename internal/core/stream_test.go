package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestEvaluateBatchStreamMatchesBatch: EvaluateAll's streaming
// delivery hands every request to the handler exactly once, with
// exactly the result a serial fan-out collects — same derived seeds,
// same per-candidate streams — at every worker count.
func TestEvaluateBatchStreamMatchesBatch(t *testing.T) {
	mem, paged := concurrencyWorld(t, 611)
	reqs := mixedRequests(concurrencyQueries(t, 18, 612), EvalOptions{})

	for name, e := range map[string]*Engine{"mem": mem, "paged": paged} {
		e := e
		t.Run(name, func(t *testing.T) {
			want, wantErrs := collectAll(t, e.EvaluateAll, reqs, AllOptions{Seed: 88})
			for _, workers := range []int{1, 4} {
				got := make([]Result, len(reqs))
				seen := make([]bool, len(reqs))
				err := e.EvaluateAll(context.Background(), reqs, AllOptions{Workers: workers, Seed: 88},
					func(i int, resp Response, err error) {
						if seen[i] {
							t.Errorf("request %d delivered twice", i)
						}
						seen[i] = true
						if err != nil || wantErrs[i] != nil {
							t.Errorf("workers=%d request %d: err %v / %v", workers, i, err, wantErrs[i])
						}
						got[i] = resp.Result
					})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				for i := range reqs {
					if !seen[i] {
						t.Fatalf("workers=%d: request %d never delivered", workers, i)
					}
					checkSameResult(t, reqs[i].Kind.String(), want[i], got[i])
				}
			}
		})
	}
}

// TestEvaluateBatchStreamPerQueryDeadline: with an already-expired
// per-request timeout every request of an EvaluateAll fan-out must
// deliver context.DeadlineExceeded — and the fan-out itself still
// completes (the deadline is per request, not per fan-out).
func TestEvaluateBatchStreamPerQueryDeadline(t *testing.T) {
	mem, _ := concurrencyWorld(t, 613)
	queries := concurrencyQueries(t, 10, 614)
	batch := mixedRequests(queries, EvalOptions{Timeout: time.Nanosecond})

	var delivered, failed int
	err := mem.EvaluateAll(context.Background(), batch, AllOptions{Workers: 2},
		func(i int, _ Response, err error) {
			delivered++
			if errors.Is(err, context.DeadlineExceeded) {
				failed++
			} else if err != nil {
				t.Errorf("request %d: unexpected error %v", i, err)
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
	err = mem.EvaluateAll(context.Background(), mixedRequests(queries, EvalOptions{Timeout: time.Minute}), AllOptions{Workers: 2},
		func(i int, _ Response, err error) {
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEvaluateBatchStreamCancel: cancelling the fan-out's context stops
// dispatch and EvaluateAll reports the cancellation.
func TestEvaluateBatchStreamCancel(t *testing.T) {
	mem, _ := concurrencyWorld(t, 615)
	batch := mixedRequests(concurrencyQueries(t, 64, 616), EvalOptions{})

	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	delivered := 0
	err := mem.EvaluateAll(ctx, batch, AllOptions{Workers: 2},
		func(int, Response, error) {
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

	// An engine is still fully usable after a cancelled fan-out.
	if _, err := mem.Evaluate(context.Background(), batch[1]); err != nil {
		t.Fatal(err)
	}
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
	batch := mixedRequests(concurrencyQueries(t, 6, 620), EvalOptions{})
	if err := mem.EvaluateAll(context.Background(), batch, AllOptions{Workers: 3}, nil); err != nil {
		t.Fatal(err)
	}
}
