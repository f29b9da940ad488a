package dsp

import (
	"fmt"
	"sync"

	"repro/internal/arena"
	"repro/internal/buf"
	"repro/internal/obs"
	"repro/internal/workpool"
)

// FFT-stage metrics. The segment histogram times each segment's
// butterflies wherever they run (pool worker or inline), so its count
// equals the number of transformed Welch segments. No-ops until the
// registry is enabled.
var (
	mFFTSegment  = obs.Default.Histogram("dsp.fft.segment")
	mFFTSegments = obs.Default.Counter("dsp.fft.segments")
	// Batch metrics: how many pool-refused transforms each stage-outer
	// batch sweep carried (occupancy 1 means no batching happened) and
	// how many segments went through batch sweeps in total.
	mFFTBatchOccupancy = obs.Default.Gauge("dsp.fft.batch_occupancy")
	mFFTBatched        = obs.Default.Counter("dsp.fft.batched")
)

// maxFeedSlots bounds how many segment transforms a feed keeps in
// flight. Each slot owns one segLen complex buffer, so the feed's
// working set stays O(segLen) regardless of capture length.
const maxFeedSlots = 4

// feedSlot is one in-flight segment: a transform buffer plus a
// WaitGroup the producer waits on before reducing the slot. The
// WaitGroup and the dispatch closure are both reusable — run is built
// once per slot, reading the ring's current plan and the slot's
// current buffer at call time — so steady-state feeding allocates
// nothing.
type feedSlot struct {
	fft []complex128
	wg  sync.WaitGroup
	run func()
}

// slotRing is the ordered dispatch machinery shared by PairFeed and
// Feed: segments are scattered into slots in arrival order, their
// butterflies may run concurrently on pool workers, and completed
// slots are reduced strictly FIFO — so the floating-point accumulation
// order is identical to the buffered Welch loops no matter how many
// transforms overlap (including zero, when the pool has no capacity
// and every transform runs on the producer).
//
// Transforms the pool refuses are not run inline immediately; they are
// parked as pending and executed together in one stage-outer batch
// sweep (Plan.butterfliesBatch) when a result is actually needed — so
// on a machine whose pool has no spare capacity the feed still gets the
// cache locality of batched butterflies: each stage's twiddle table is
// loaded once per batch instead of once per segment. Per-segment
// results are bit-identical either way, and the FIFO reduction order
// never changes.
type slotRing struct {
	slots    []feedSlot
	head     int // oldest undrained slot
	inFlight int
	count    int // segments reduced so far
	pool     *workpool.Pool
	plan     *Plan
	pending  []*feedSlot    // scattered slots awaiting a batch sweep
	batch    [][]complex128 // reused batch argument storage

	// Arena backing for the slot buffers (nil = heap). Buffers carved
	// from one arena are never reused under another.
	mem *arena.Arena
}

func (r *slotRing) init(segLen int, plan *Plan, pool *workpool.Pool, mem *arena.Arena) {
	if pool == nil {
		pool = workpool.Default
	}
	r.pool = pool
	r.plan = plan
	// The ring always holds maxFeedSlots slots — not 1+pool.Cap() — so
	// pool-refused transforms can accumulate into a batch even when the
	// pool has no workers to spare (the common case on a loaded or
	// single-core machine, which is exactly where batching pays).
	if len(r.slots) != maxFeedSlots {
		r.slots = make([]feedSlot, maxFeedSlots)
	}
	if mem != r.mem {
		r.mem = mem
		if mem != nil {
			for i := range r.slots {
				r.slots[i].fft = nil // a new arena: re-carve from it
			}
		}
	}
	for i := range r.slots {
		sl := &r.slots[i]
		if r.mem != nil {
			if cap(sl.fft) < segLen {
				sl.fft = r.mem.Complexes(segLen)
			} else {
				sl.fft = sl.fft[:segLen]
			}
		} else {
			sl.fft = buf.Grow(sl.fft, segLen)
		}
		if sl.run == nil {
			sl.run = func() {
				sp := mFFTSegment.Start()
				r.plan.butterflies(sl.fft)
				sp.End()
				sl.wg.Done()
			}
		}
	}
	r.head = 0
	r.inFlight = 0
	r.count = 0
	r.pending = r.pending[:0]
	r.batch = r.batch[:0]
}

// next returns the slot the caller should scatter the next segment
// into, draining the oldest in-flight slot first if the ring is full.
func (r *slotRing) next(reduce func(f []complex128, first bool)) *feedSlot {
	if r.inFlight == len(r.slots) {
		r.drainOne(reduce)
	}
	return &r.slots[(r.head+r.inFlight)%len(r.slots)]
}

// dispatch hands a scattered slot to the pool for its butterflies,
// parking it for the next batch sweep when no worker slot is free.
func (r *slotRing) dispatch(sl *feedSlot) {
	sl.wg.Add(1)
	mFFTSegments.Inc()
	if !r.pool.Go(sl.run) {
		r.pending = append(r.pending, sl)
	}
	r.inFlight++
}

// flush executes every pending transform in one stage-outer batch sweep
// and releases their WaitGroups.
func (r *slotRing) flush() {
	if len(r.pending) == 0 {
		return
	}
	r.batch = r.batch[:0]
	for _, sl := range r.pending {
		r.batch = append(r.batch, sl.fft)
	}
	sp := mFFTSegment.Start()
	r.plan.butterfliesBatch(r.batch)
	sp.End()
	mFFTBatchOccupancy.Set(int64(len(r.pending)))
	mFFTBatched.Add(uint64(len(r.pending)))
	for _, sl := range r.pending {
		sl.wg.Done()
	}
	r.pending = r.pending[:0]
}

// drainOne waits for the oldest in-flight transform and reduces it.
// Pending transforms are flushed first: the oldest slot may itself be
// pending, and once a result is needed there is nothing to gain from
// waiting for more batch occupancy.
func (r *slotRing) drainOne(reduce func(f []complex128, first bool)) {
	r.flush()
	sl := &r.slots[r.head]
	sl.wg.Wait()
	reduce(sl.fft, r.count == 0)
	r.count++
	r.head = (r.head + 1) % len(r.slots)
	r.inFlight--
}

func (r *slotRing) drainAll(reduce func(f []complex128, first bool)) {
	for r.inFlight > 0 {
		r.drainOne(reduce)
	}
}

// PairFeed is the streaming form of WelchPairInto: the caller pushes
// full segments of the real pair (already 50%-overlapped — the caller
// owns the rolling window), the feed transforms them — possibly
// several concurrently on pool workers — and accumulates periodograms
// and cross-spectrum in strict arrival order into the destinations
// given at Init. Finish applies the Welch normalization. Because the
// feed and WelchPairInto share every per-segment primitive and the
// reduction is FIFO, a feed produces bit-identical results to the
// buffered call on the same segment sequence.
//
// A PairFeed is NOT safe for concurrent use by multiple producers.
type PairFeed struct {
	s      *WelchScratch
	ring   slotRing
	pa, pb []float64
	cross  []complex128
	fs     float64
	// reduce is allocated once on first Init and reads the feed's
	// current fields, so re-initializing reuses it.
	reduce func(f []complex128, first bool)
}

// Init readies the feed to accumulate into pa, pb and cross
// (all segLen long). It may be called repeatedly on one PairFeed to
// reuse its slot buffers across captures. The slot transform buffers
// are carved from mem when non-nil (heap otherwise), once per arena and
// segment length.
func (f *PairFeed) Init(s *WelchScratch, pa, pb []float64, cross []complex128, fs float64, pool *workpool.Pool, mem *arena.Arena) error {
	if fs <= 0 {
		return fmt.Errorf("dsp: sample rate %g", fs)
	}
	if len(pa) != s.segLen || len(pb) != s.segLen || len(cross) != s.segLen {
		return fmt.Errorf("dsp: Welch pair destination lengths %d/%d/%d, segment length %d",
			len(pa), len(pb), len(cross), s.segLen)
	}
	f.s = s
	f.pa, f.pb, f.cross = pa, pb, cross
	f.fs = fs
	if f.reduce == nil {
		f.reduce = func(ft []complex128, first bool) {
			f.s.accumulatePair(f.pa, f.pb, f.cross, ft, first)
		}
	}
	f.ring.init(s.segLen, s.plan, pool, mem)
	return nil
}

// Feed pushes one full segment (len(a) == len(b) == segLen). The
// segment contents are consumed before Feed returns — the caller may
// reuse a and b immediately — but the transform and reduction may
// complete later, on a pool worker.
func (f *PairFeed) Feed(a, b []float64) error {
	if len(a) != f.s.segLen || len(b) != f.s.segLen {
		return fmt.Errorf("dsp: Welch pair segment lengths %d/%d, segment length %d", len(a), len(b), f.s.segLen)
	}
	sl := f.ring.next(f.reduce)
	f.s.scatterPair(sl.fft, a, b)
	f.ring.dispatch(sl)
	return nil
}

// Count returns how many segments have been reduced so far (in-flight
// segments are not counted until drained).
func (f *PairFeed) Count() int { return f.ring.count }

// Finish drains every in-flight transform and applies the Welch
// normalization. At least one segment must have been fed.
func (f *PairFeed) Finish() error {
	f.ring.drainAll(f.reduce)
	if f.ring.count == 0 {
		return fmt.Errorf("dsp: Welch pair feed finished with no segments")
	}
	f.s.finishScalePair(f.pa, f.pb, f.cross, f.fs, f.ring.count)
	return nil
}

// Feed is the streaming form of WelchInto for a single complex stream:
// push full (50%-overlapped) segments, then Finish. Same ordering and
// bit-identity guarantees as PairFeed.
//
// A Feed is NOT safe for concurrent use by multiple producers.
type Feed struct {
	s    *WelchScratch
	ring slotRing
	dst  []float64
	fs   float64
	// reduce is allocated once on first Init and reads the feed's
	// current fields, so re-initializing reuses it.
	reduce func(f []complex128, first bool)
}

// Init readies the feed to accumulate into dst (segLen long). It may
// be called repeatedly on one Feed to reuse its slot buffers, which
// are carved from mem when non-nil (see PairFeed.Init).
func (f *Feed) Init(s *WelchScratch, dst []float64, fs float64, pool *workpool.Pool, mem *arena.Arena) error {
	if fs <= 0 {
		return fmt.Errorf("dsp: sample rate %g", fs)
	}
	if len(dst) != s.segLen {
		return fmt.Errorf("dsp: Welch destination length %d, segment length %d", len(dst), s.segLen)
	}
	f.s = s
	f.dst = dst
	f.fs = fs
	if f.reduce == nil {
		f.reduce = func(ft []complex128, first bool) {
			f.s.accumulate(f.dst, ft, first)
		}
	}
	f.ring.init(s.segLen, s.plan, pool, mem)
	return nil
}

// Feed pushes one full segment (len(seg) == segLen). The segment is
// consumed before Feed returns; the caller may reuse it immediately.
func (f *Feed) Feed(seg []complex128) error {
	if len(seg) != f.s.segLen {
		return fmt.Errorf("dsp: Welch segment length %d, segment length %d", len(seg), f.s.segLen)
	}
	sl := f.ring.next(f.reduce)
	f.s.scatter(sl.fft, seg)
	f.ring.dispatch(sl)
	return nil
}

// Count returns how many segments have been reduced so far.
func (f *Feed) Count() int { return f.ring.count }

// Finish drains every in-flight transform and applies the Welch
// normalization. At least one segment must have been fed.
func (f *Feed) Finish() error {
	f.ring.drainAll(f.reduce)
	if f.ring.count == 0 {
		return fmt.Errorf("dsp: Welch feed finished with no segments")
	}
	f.s.finishScale(f.dst, f.fs, f.ring.count)
	return nil
}
