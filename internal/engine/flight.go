package engine

import (
	"context"
	"sync"
)

// Group is the exactly-once in-flight deduplication pattern, generic
// over the key and the computed value: callers racing on one key elect
// a leader, the leader computes, and every concurrent waiter receives
// the leader's result instead of recomputing it. It is the mechanism
// behind Flight (per-cell results, string keys) and behind savat's
// synthesis-product cache (per-row envelope spectra, struct keys so the
// steady-state lookup path allocates nothing), which share the protocol
// but neither the key nor the value type.
//
// Correctness rests on the caller's key contract: two computations may
// share a key only when their results are interchangeable by
// construction. A Group is safe for concurrent use; the zero value is
// ready.
type Group[K comparable, T any] struct {
	mu    sync.Mutex
	calls map[K]*Call[T]
}

// Call is one in-progress computation. done is closed exactly once,
// after val/err are set.
type Call[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Lead registers the caller as the computer of key if no computation is
// in progress, returning (call, true). Otherwise it returns the
// existing in-progress call and false; the caller should Wait on it.
func (g *Group[K, T]) Lead(key K) (*Call[T], bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	if g.calls == nil {
		g.calls = make(map[K]*Call[T])
	}
	c := &Call[T]{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// Finish publishes the leader's result to every waiter and retires the
// key. Retiring before closing done means a failed computation does not
// poison the key: the next camper becomes a fresh leader and retries,
// while current waiters observe the error and re-enter Lead themselves.
func (g *Group[K, T]) Finish(key K, c *Call[T], v T, err error) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	c.val, c.err = v, err
	close(c.done)
}

// Wait blocks until the call completes or ctx is cancelled.
func (c *Call[T]) Wait(ctx context.Context) (T, error) {
	select {
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	case <-c.done:
		return c.val, c.err
	}
}

// Flight deduplicates identical cells while they are being computed.
// The result cache already collapses identical cells across time — a
// cell computed once is never computed again — but two campaigns
// submitted concurrently can both miss the cache and compute the same
// cell twice. A Flight shared by their runs (Options.Flight) closes
// that window: cells are keyed by the same content address as the
// cache, the first campaign to reach a key computes it, and every
// concurrent campaign that reaches the same key waits for that result
// instead of recomputing it (counted as Stats.Deduped).
//
// Correctness rests on the cache-key contract: two cells share a key
// exactly when their values are bit-identical by construction, so
// handing one campaign's cell value to another can never change a
// matrix. A Flight is safe for concurrent use; the zero value is ready.
type Flight = Group[string, float64]

// NewFlight returns an empty in-flight deduplication table.
func NewFlight() *Flight {
	return &Flight{}
}
