package partition

import (
	"context"
	"errors"
	"testing"
	"time"

	"samr/internal/geom"
	"samr/internal/grid"
)

// countdownCtx is a deterministic cancellation harness: Err() returns
// nil for the first n polls and context.Canceled afterwards. Because
// the partitioners observe cancellation exclusively through Err()
// polls, sweeping n over [0, total] exercises every cancellation point
// a real mid-flight cancel could hit — without goroutines or timing.
// Done() is inherited from Background (never ready), which is valid
// for a context that is "cancelled" only through Err.
type countdownCtx struct {
	context.Context
	remaining int
	polls     int
}

func newCountdownCtx(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), remaining: n}
}

func (c *countdownCtx) Err() error {
	c.polls++
	if c.polls > c.remaining {
		return context.Canceled
	}
	return nil
}

// pollsOf counts how many times a full cold-cache Partition run polls
// the context.
func pollsOf(t *testing.T, mk func() Partitioner, h *grid.Hierarchy, np int) int {
	t.Helper()
	flushChainCaches()
	ctx := newCountdownCtx(1 << 30)
	if _, err := mk().Partition(ctx, h, np); err != nil {
		t.Fatal(err)
	}
	if ctx.polls == 0 {
		t.Fatal("partitioner never polled its context")
	}
	return ctx.polls
}

// ctxPartitioners returns fresh-instance constructors for every
// partitioner implementation, including the stateful wrapper.
func ctxPartitioners() map[string]func() Partitioner {
	return map[string]func() Partitioner{
		"domain":  func() Partitioner { return NewDomainSFC() },
		"patch":   func() Partitioner { return NewPatchBased() },
		"hybrid":  func() Partitioner { return NewNatureFable() },
		"postmap": func() Partitioner { return NewPostMapped(NewDomainSFC()) },
		"relabel": func() Partitioner { return &relabelingPartitioner{inner: NewNatureFable()} },
	}
}

// TestPartitionCancelledNeverPartial is the property test of the
// cancellation contract: for every partitioner and every possible
// cancellation point, Partition returns either a complete validated
// Assignment (nil error) or (nil, context error) — never a partial
// result.
func TestPartitionCancelledNeverPartial(t *testing.T) {
	h := testHierarchy()
	const np = 8
	for name, mk := range ctxPartitioners() {
		t.Run(name, func(t *testing.T) {
			total := pollsOf(t, mk, h, np)
			for n := 0; n < total; n++ {
				// Each attempt runs against a cold memo: a warm unit-chain
				// cache legitimately needs fewer polls (and may complete
				// before the countdown fires), which would break the
				// poll-point sweep. Cold runs also prove a cancelled
				// build never stores a partial artifact for the next run.
				flushChainCaches()
				a, err := mk().Partition(newCountdownCtx(n), h, np)
				if err == nil {
					t.Fatalf("cancel at poll %d/%d: no error", n, total)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancel at poll %d: err = %v, want wrapped context.Canceled", n, err)
				}
				if a != nil {
					t.Fatalf("cancel at poll %d/%d returned a partial assignment (%d fragments)",
						n, total, len(a.Fragments))
				}
			}
			// And at exactly total polls the cold run completes validly.
			flushChainCaches()
			a, err := mk().Partition(newCountdownCtx(total), h, np)
			if err != nil {
				t.Fatalf("uncancelled run failed: %v", err)
			}
			if err := a.Validate(h); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPartitionPreCancelled: an already-cancelled context fails before
// any work, for every implementation.
func TestPartitionPreCancelled(t *testing.T) {
	h := testHierarchy()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, mk := range ctxPartitioners() {
		a, err := mk().Partition(ctx, h, 8)
		if !errors.Is(err, context.Canceled) || a != nil {
			t.Errorf("%s: pre-cancelled Partition = (%v, %v), want (nil, Canceled)", name, a, err)
		}
	}
}

// TestPartitionDeadlineErrorKind: a deadline-expired context surfaces
// DeadlineExceeded (not Canceled), so servers can map 504 vs 499.
func TestPartitionDeadlineErrorKind(t *testing.T) {
	h := testHierarchy()
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	_, err := NewNatureFable().Partition(ctx, h, 8)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
	}
}

// TestMergeFragmentsHonoursDeadline pins the deadline through the
// fragment merge, where a large single-box base level spends seconds
// in per-owner Simplify after every cheaper stage has finished: the
// call must end in a wrapped DeadlineExceeded and a nil assignment,
// not a full assignment delivered long after the deadline.
func TestMergeFragmentsHonoursDeadline(t *testing.T) {
	flushChainCaches()
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 256, 256), 2)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	a, err := NewDomainSFC().Partition(ctx, h, 4)
	if !errors.Is(err, context.DeadlineExceeded) || a != nil {
		n := -1
		if a != nil {
			n = len(a.Fragments)
		}
		t.Fatalf("Partition = (%d fragments, %v), want (nil, wrapped DeadlineExceeded)", n, err)
	}
}

// TestPostMappedCancelPreservesState: a cancelled call must not disturb
// the wrapper's carried previous assignment — the next successful call
// still aligns labels with the last successful one.
func TestPostMappedCancelPreservesState(t *testing.T) {
	h := testHierarchy()
	pm := NewPostMapped(&relabelingPartitioner{inner: NewDomainSFC()})
	a1, err := pm.Partition(context.Background(), h, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Cancelled mid-flight: state untouched.
	if _, err := pm.Partition(newCountdownCtx(2), h.Clone(), 4); err == nil {
		t.Fatal("expected cancellation")
	}
	a2, err := pm.Partition(context.Background(), h.Clone(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if mv := migrationBetween(h, a1, a2); mv != 0 {
		t.Errorf("post-cancel migration = %d, want 0 (state preserved)", mv)
	}
}
