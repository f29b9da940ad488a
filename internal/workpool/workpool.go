// Package workpool provides a process-wide bounded token pool that
// caps the *extra* goroutines the measurement pipeline fans out.
//
// Two layers want parallelism at once: the campaign engine runs one
// worker per core, and inside every worker the streaming analyzer can
// fan per-segment FFT work out to helpers. Unchecked, a matrix campaign
// would schedule workers × segments goroutines and oversubscribe the
// machine. Both layers therefore draw from one shared pool whose
// capacity is GOMAXPROCS−1 (the caller's own goroutine is the implied
// extra token): engine workers beyond the first each hold a token for
// their lifetime, and the per-segment fan-out inside a worker only
// spawns helpers when tokens remain. On a saturated engine — or a
// single-core machine — the pool is empty and every stage simply runs
// inline on its caller, which is also the degenerate case the
// bit-identity tests pin: parallel and inline execution produce the
// same bytes because reduction order never depends on scheduling.
package workpool

import (
	"runtime"
	"sync"

	"repro/internal/obs"
)

// Pool-wide scheduling metrics: how often fan-out work actually got a
// goroutine versus running inline on its caller. Both are no-ops until
// the observability registry is enabled.
var (
	mSpawned = obs.Default.Counter("workpool.spawned")
	mInline  = obs.Default.Counter("workpool.inline")
)

// Pool is a bounded token bucket with one long-lived worker goroutine
// per token. The zero value is unusable; use New. All methods are safe
// for concurrent use.
type Pool struct {
	tokens chan struct{}
	// work feeds Go's callbacks to the workers. It is buffered to the
	// capacity: a callback is only sent while its token is held, so at
	// most capacity callbacks are ever queued and a send never blocks.
	// Handing a func value to a running goroutine allocates nothing,
	// where spawning a goroutine per callback allocates on every call.
	work      chan func()
	startOnce sync.Once
}

// New returns a pool with the given capacity. A non-positive capacity
// yields a pool that never grants tokens (all work runs inline). The
// pool's workers start on its first granted Go and live as long as the
// process, so a pool is made once and shared, like Default.
func New(capacity int) *Pool {
	if capacity < 0 {
		capacity = 0
	}
	p := &Pool{tokens: make(chan struct{}, capacity), work: make(chan func(), capacity)}
	for i := 0; i < capacity; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// worker runs callbacks for the life of the process, returning each
// callback's token when it finishes.
func (p *Pool) worker() {
	for f := range p.work {
		f()
		p.Release()
	}
}

// Default is the process-wide pool shared by the campaign engine and
// the streaming analyzer, sized GOMAXPROCS−1 at startup.
var Default = New(runtime.GOMAXPROCS(0) - 1)

// Cap returns the pool's total token capacity.
func (p *Pool) Cap() int { return cap(p.tokens) }

// TryAcquire takes a token if one is free, without blocking.
func (p *Pool) TryAcquire() bool {
	select {
	case <-p.tokens:
		return true
	default:
		return false
	}
}

// Release returns a token taken with TryAcquire (or granted to a Go
// callback). Releasing more tokens than were acquired panics.
func (p *Pool) Release() {
	select {
	case p.tokens <- struct{}{}:
	default:
		panic("workpool: Release without Acquire")
	}
}

// Go runs f on one of the pool's worker goroutines if a token is free,
// returning true; the token is released when f returns. With no token
// it returns false WITHOUT running f — the caller runs the work inline.
// The workers start on the first granted call and are reused, so a
// steady-state Go allocates nothing. Callers that need completion
// tracking wrap f with their own WaitGroup:
//
//	wg.Add(1)
//	if !pool.Go(func() { defer wg.Done(); work() }) {
//		work()
//		wg.Done()
//	}
func (p *Pool) Go(f func()) bool {
	if !p.TryAcquire() {
		mInline.Inc()
		return false
	}
	mSpawned.Inc()
	p.startOnce.Do(func() {
		for i := 0; i < cap(p.tokens); i++ {
			go p.worker()
		}
	})
	p.work <- f
	return true
}

// Reserve acquires up to max tokens (without blocking) and returns a
// release function for all of them. Engine workers use it to hold their
// core's token for the lifetime of the run.
func (p *Pool) Reserve(max int) (held int, release func()) {
	for held < max && p.TryAcquire() {
		held++
	}
	n := held
	var once sync.Once
	return held, func() {
		once.Do(func() {
			for i := 0; i < n; i++ {
				p.Release()
			}
		})
	}
}
