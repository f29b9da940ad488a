// Package arena provides a per-worker bump allocator for the
// measurement working set: one slab per element type, carved
// sequentially.
//
// The campaign engine gives each worker's Measurer one Arena (see
// savat.WithArena); the Measurer's analyzer scratch carves its working
// buffers — rolling Welch windows, in-flight segment transforms, the
// display accumulator — from it instead of the heap. Steady-state cell
// compute then performs zero heap allocations (cmd/benchguard
// -zeroalloc enforces this), the whole working set lives in one
// contiguous block the GC scans as a single object, and buffers a
// worker touches together sit together.
//
// # Lifetime rules
//
// An Arena has exactly one owner (it is NOT safe for concurrent use)
// and never rewinds: carved memory is never handed out twice, so a
// carved slice stays valid for as long as its holder keeps it. The
// price is that every carve grows the footprint, so consumers carve a
// buffer once at the size they need and reuse it from then on; a
// Measurer's configuration is fixed at construction, so its working
// set is carved on the first measurement and the footprint stops
// growing there. Buffers that outlive the owner's next call — cached
// synthesis products, traces handed to callers — do not come from an
// arena.
//
// A nil *Arena is a valid receiver for the carving methods and falls
// back to plain heap allocation, so consumers can be threaded
// unconditionally and pay nothing when no arena is installed.
package arena

// minSlab is the smallest slab grown on first use, in elements. Small
// enough that a stray tiny workload wastes nothing meaningful, large
// enough that typical Welch segments (≤ 64k) need one growth step.
const minSlab = 1024

// Arena is the typed bump allocator. The zero value is ready to use;
// New is provided for symmetry with the rest of the codebase.
type Arena struct {
	floats    []float64
	complexes []complex128
	fOff      int
	cOff      int
}

// New returns an empty arena; slabs are sized on first carve.
func New() *Arena { return &Arena{} }

// Floats carves an n-element float64 slice (full, zeroed — slabs are
// fresh and never rewound — and capacity clipped to n so appends cannot
// silently overlap a neighbour). On a nil arena it heap-allocates.
func (a *Arena) Floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if a.fOff+n > len(a.floats) {
		a.floats = make([]float64, grownSlab(len(a.floats), n))
		a.fOff = 0 // earlier carves keep the old slab alive themselves
	}
	s := a.floats[a.fOff : a.fOff+n : a.fOff+n]
	a.fOff += n
	return s
}

// Complexes carves an n-element complex128 slice with the same
// contract as Floats.
func (a *Arena) Complexes(n int) []complex128 {
	if a == nil {
		return make([]complex128, n)
	}
	if a.cOff+n > len(a.complexes) {
		a.complexes = make([]complex128, grownSlab(len(a.complexes), n))
		a.cOff = 0
	}
	s := a.complexes[a.cOff : a.cOff+n : a.cOff+n]
	a.cOff += n
	return s
}

// Footprint returns the arena's current slab capacity in bytes (for
// tests and diagnostics).
func (a *Arena) Footprint() int {
	if a == nil {
		return 0
	}
	return 8*len(a.floats) + 16*len(a.complexes)
}

// grownSlab doubles the slab until the pending carve fits, so a few
// growth steps cover a whole working set and its carves land in one
// block.
func grownSlab(cur, need int) int {
	sz := cur
	if sz < minSlab {
		sz = minSlab
	}
	for sz < need {
		sz *= 2
	}
	if sz < 2*cur {
		sz = 2 * cur
	}
	return sz
}
