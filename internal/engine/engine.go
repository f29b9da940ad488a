// Package engine executes measurement campaigns: a worker pool fans out
// the cells of a (row, col, repetition) grid, a content-addressed
// per-cell result cache (in-memory LRU over an optional durable
// internal/store segment log) makes campaigns resumable — rerunning a
// campaign against the same store serves every finished cell as a hit —
// and progress is streamed as typed events with a running Stats
// snapshot.
//
// The engine is deliberately ignorant of what a cell computes: the
// caller provides the compute function and the cache-key material that
// identifies each cell's result. The savat package builds its
// pairwise-SAVAT campaigns on top; any grid of deterministic,
// independent float-valued cells schedules the same way.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workpool"
)

// Spec describes one campaign: the grid shape, the identity of its
// results, and how to compute a cell.
type Spec struct {
	// Rows, Cols, Reps define the cell grid; every combination in
	// [0,Rows)×[0,Cols)×[0,Reps) is one cell.
	Rows, Cols, Reps int
	// Key returns the cache-key material identifying one cell's result
	// (hashed with Key before use). Nil disables result caching.
	Key func(row, col, rep int) string
	// Compute produces the value of one cell. It must be deterministic
	// in (row, col, rep) — resumability and cache correctness depend on
	// it — and should honor ctx cancellation where it can. state is the
	// calling worker's NewWorkerState value (nil without one); it must
	// never influence the computed value.
	Compute func(ctx context.Context, state any, row, col, rep int) (float64, error)
	// NewWorkerState, when non-nil, is called once per worker goroutine
	// at the start of a Run; the value it returns is handed to every
	// Compute call that worker makes. It lets cells reuse expensive
	// per-worker scratch (buffers, plans, caches) without locking —
	// state is never shared between workers.
	NewWorkerState func() any
}

func (s Spec) validate() error {
	if s.Rows <= 0 || s.Cols <= 0 || s.Reps <= 0 {
		return fmt.Errorf("engine: bad grid %dx%dx%d", s.Rows, s.Cols, s.Reps)
	}
	if s.Compute == nil {
		return fmt.Errorf("engine: nil Compute")
	}
	return nil
}

// Options are the runtime resources of one Run.
type Options struct {
	// Parallelism bounds concurrent cell computations (0 = GOMAXPROCS).
	Parallelism int
	// Cache memoizes cell results across Run calls and — with a durable
	// store — across processes. Nil uses a fresh in-memory cache of
	// DefaultCacheCapacity.
	Cache *Cache
	// Flight, when non-nil, deduplicates identical cells while they are
	// in flight: concurrent runs sharing one Flight (and one Cache)
	// compute each distinct cell key once; the others wait for that
	// result and count it as Stats.Deduped. Nil disables in-flight
	// deduplication (the cache still collapses identical cells across
	// time).
	Flight *Flight
	// Monitor, when non-nil, receives one ProgressEvent per finished
	// cell, in completion order (Stats.Done rises by one per event). Run
	// closes it when the campaign ends, so pass a fresh channel per Run
	// and drain it until it closes — sends block.
	Monitor chan<- ProgressEvent
}

// Result is one campaign's output.
type Result struct {
	// Values holds every cell value, indexed [row][col][rep].
	Values [][][]float64
	// Stats are the final scheduling statistics for this run.
	Stats Stats
}

// run carries the mutable state of one Run call.
type run struct {
	opts     Options
	spec     Spec
	start    time.Time
	values   [][][]float64
	inflight int64 // cells currently in compute (atomic)

	mu      sync.Mutex
	st      Stats
	firstEr error
}

// Run executes the campaign described by spec on the resources in opts,
// honoring ctx: on cancellation no new cells start, in-flight cells
// finish (landing in the cache, so a rerun against the same durable
// store resumes), and the context's error is returned. A cell whose
// Compute fails stops the campaign with that error; cells are
// deterministic, so the cell is not computed again. When opts.Monitor
// is set it is closed before Run returns.
func Run(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	res, err := runCampaign(ctx, spec, opts)
	if opts.Monitor != nil {
		close(opts.Monitor)
	}
	return res, err
}

func runCampaign(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.Cache == nil {
		opts.Cache = NewCache(DefaultCacheCapacity, nil)
	}
	bindCacheGauges(opts.Cache)

	total := spec.Rows * spec.Cols * spec.Reps
	r := &run{
		opts:   opts,
		spec:   spec,
		start:  time.Now(),
		values: make([][][]float64, spec.Rows),
		st:     Stats{Total: total},
	}
	for i := range r.values {
		r.values[i] = make([][]float64, spec.Cols)
		for j := range r.values[i] {
			row := make([]float64, spec.Reps)
			for k := range row {
				row[k] = math.NaN()
			}
			r.values[i][j] = row
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(opts.Parallelism)
	for w := 0; w < opts.Parallelism; w++ {
		reserve := w > 0
		go func() {
			defer wg.Done()
			if reserve {
				// Campaign workers beyond the first occupy shared worker-pool
				// slots for their lifetime, so per-cell transform fan-out
				// (specan's segment feeds) plus campaign parallelism never
				// oversubscribes the machine: every concurrent executor past
				// the first holds a pool token, whoever it belongs to.
				_, release := workpool.Default.Reserve(1)
				defer release()
			}
			var state any
			if spec.NewWorkerState != nil {
				state = spec.NewWorkerState()
			}
			for idx := range work {
				if runCtx.Err() != nil {
					continue // drain: cancellation stops new cells promptly
				}
				if err := r.cell(runCtx, idx, state); err != nil {
					r.fail(err)
					cancel()
				}
			}
		}()
	}
feed:
	for idx := 0; idx < total; idx++ {
		select {
		case work <- idx:
		case <-runCtx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()

	r.mu.Lock()
	r.st.Elapsed = time.Since(r.start)
	st := r.st
	firstErr := r.firstEr
	r.mu.Unlock()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: campaign interrupted after %d/%d cells: %w", st.Done, st.Total, err)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &Result{Values: r.values, Stats: st}, nil
}

// cell completes one grid cell: cache lookup, then in-flight
// deduplication (when a Flight is shared), then compute, then
// accounting and eventing. state is the owning worker's NewWorkerState
// value (nil without one).
func (r *run) cell(ctx context.Context, idx int, state any) error {
	row, col, rep := r.unflatten(idx)

	var key string
	if r.spec.Key != nil {
		key = Key(r.spec.Key(row, col, rep))
	}
	if key != "" {
		if v, ok := r.opts.Cache.Get(key); ok {
			mCellsCached.Inc()
			r.record(row, col, rep, v, ProgressEvent{Row: row, Col: col, Rep: rep, Cached: true})
			return nil
		}
	}

	fl := r.opts.Flight
	if key == "" || fl == nil {
		return r.computeCell(ctx, state, key, row, col, rep, nil)
	}
	for {
		c, leader := fl.Lead(key)
		if leader {
			// Double-check the cache as leader: a previous leader may have
			// finished (retiring the key) between our Get above and Lead
			// here. Re-checking makes "each distinct key computed once
			// across runs sharing Flight and Cache" exact, not
			// best-effort.
			if v, ok := r.opts.Cache.Get(key); ok {
				fl.Finish(key, c, v, nil)
				mCellsCached.Inc()
				r.record(row, col, rep, v, ProgressEvent{Row: row, Col: col, Rep: rep, Cached: true})
				return nil
			}
			return r.computeCell(ctx, state, key, row, col, rep, func(v float64, err error) {
				fl.Finish(key, c, v, err)
			})
		}
		v, err := c.Wait(ctx)
		if err == nil {
			mCellsDeduped.Inc()
			r.record(row, col, rep, v, ProgressEvent{Row: row, Col: col, Rep: rep, Deduped: true})
			return nil
		}
		if ctx.Err() != nil {
			return nil // our own cancellation, not a cell failure
		}
		// The leading campaign failed or was cancelled; its error is its
		// own. Loop and compute the cell ourselves (possibly becoming the
		// next leader).
	}
}

// computeCell computes one cell and does its accounting, eventing, and
// caching. publish, when non-nil, hands the outcome to in-flight
// waiters (it runs before the error is acted on, so waiters never block
// on a failed leader).
func (r *run) computeCell(ctx context.Context, state any, key string, row, col, rep int, publish func(float64, error)) error {
	atomic.AddInt64(&r.inflight, 1)
	mInFlight.Add(1)
	begin := time.Now()
	v, err := r.spec.Compute(ctx, state, row, col, rep)
	dur := time.Since(begin)
	atomic.AddInt64(&r.inflight, -1)
	mInFlight.Add(-1)
	// Cache before publishing to in-flight waiters: once the flight key
	// retires, the value must already be visible in the cache, so the
	// leader double-check in cell never loses a result.
	if err == nil && key != "" {
		r.opts.Cache.Put(key, v)
	}
	if publish != nil {
		publish(v, err)
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil // cancellation, not a cell failure
		}
		return fmt.Errorf("engine: cell (%d,%d,%d): %w", row, col, rep, err)
	}
	mCellsComputed.Inc()
	mCellLatency.Observe(dur)
	r.record(row, col, rep, v, ProgressEvent{Row: row, Col: col, Rep: rep, Duration: dur})
	return nil
}

// record stores a finished cell and emits its progress event. The send
// happens under r.mu, the lock that assigns Done, so events reach the
// Monitor in completion order: Stats.Done rises by exactly one per
// event, and the last event received carries the final Stats. Holding
// r.mu across the send cannot deadlock: r.mu is private to this run, so
// the consumer never needs it, and the Monitor contract already obliges
// the consumer to drain the channel.
func (r *run) record(row, col, rep int, v float64, ev ProgressEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[row][col][rep] = v
	r.st.Done++
	switch {
	case ev.Cached:
		r.st.Cached++
	case ev.Deduped:
		r.st.Deduped++
	default:
		r.st.Computed++
	}
	r.st.Elapsed = time.Since(r.start)
	ev.Stats = r.st
	ev.Health = r.healthLocked()
	if r.opts.Monitor != nil {
		r.opts.Monitor <- ev
	}
}

// healthLocked derives the pipeline-health snapshot attached to each
// progress event from the run's own accounting plus the engine cell
// latency histogram. The latency quantiles are zero when the
// observability registry is disabled; the scheduling numbers are always
// live. Callers hold r.mu.
func (r *run) healthLocked() Health {
	inFlight := int(atomic.LoadInt64(&r.inflight))
	h := Health{
		InFlight:   inFlight,
		QueueDepth: r.st.Total - r.st.Done - inFlight,
	}
	if r.st.Done > 0 {
		h.CacheHitRate = float64(r.st.Cached) / float64(r.st.Done)
	}
	h.LatencyP50, h.LatencyP90, h.LatencyP99 = mCellLatency.Quantiles(0.50, 0.90, 0.99)
	mQueueDepth.Set(int64(h.QueueDepth))
	return h
}

func (r *run) fail(err error) {
	r.mu.Lock()
	if r.firstEr == nil {
		r.firstEr = err
	}
	r.mu.Unlock()
}

func (r *run) unflatten(idx int) (row, col, rep int) {
	rep = idx % r.spec.Reps
	idx /= r.spec.Reps
	return idx / r.spec.Cols, idx % r.spec.Cols, rep
}
