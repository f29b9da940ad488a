package savat

import (
	"context"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/specan"
)

// Synthesis-product cache metrics, on the process registry so campaign
// hit rates show up in /metrics and obs.WriteSummary. A hit means a
// measurement skipped an entire synthesis + Welch pass.
var (
	mSynthHits   = obs.Default.Counter("savat.synthcache.hits")
	mSynthMisses = obs.Default.Counter("savat.synthcache.misses")
)

// SynthCache memoizes synthesis products — envelope pair-Welch products
// (specan.PairPSD) and noise PSDs — across measurements that share a
// stochastic realization. Entries are keyed by the full recipe (stage
// seed plus every synthesis and segmentation parameter), so a hit is
// exact: the cached products are bit-identical to what the measurement
// would have computed. Combined with CampaignSeeds' scoping, a campaign
// row synthesizes instruction A's envelope once and every row-mate
// reuses its products, and each repetition's noise capture is analyzed
// once for the whole matrix.
//
// A SynthCache built with NewSynthCache is safe for concurrent use and
// deduplicates concurrent computations of one key in flight (the
// engine.Group exactly-once protocol): the first caller computes, the
// rest wait for its published result. Published products are immutable
// and shared read-only; eviction is safe because live references keep
// the backing arrays alive.
//
// The scratch-private variant (newPrivateSynthCache) is single-owner —
// a Measurer is not safe for concurrent use, and its cache
// inherits that contract — which buys two things: no in-flight
// protocol, and recycling of evicted entries' buffers into later
// computations, so a steady stream of distinct-seed measurements
// through one Measurer allocates no product-sized buffers after
// warm-up.
type SynthCache struct {
	mu         sync.Mutex
	cap        int
	private    bool
	entries    map[productKey]*synthEntry
	head, tail *synthEntry // doubly-linked LRU; head = most recent
	count      int

	// Recycling freelists (private mode only).
	freeEnv     []*specan.PairPSD
	freeNoise   [][]float64
	freeEntries *synthEntry // single-linked through next

	envFlight   engine.Group[productKey, *specan.PairPSD]
	noiseFlight engine.Group[productKey, []float64]
}

// productKey identifies one synthesis product: the (mc, cfg)-fixed
// recipe prefix (see Measurer.productKeys, built once per Measurer and
// compared by content, so equal recipes match across Measurers) plus
// the stage seed. A comparable struct rather than a concatenated
// string so the steady-state lookup path performs no per-measurement
// key allocation.
type productKey struct {
	prefix string
	seed   int64
}

// synthEntry is one cached product. Exactly one of env/noise is set;
// typed fields rather than an `any` so storing a noise PSD does not box
// its slice header on every insert (the steady-state miss path must not
// allocate).
type synthEntry struct {
	key        productKey
	env        *specan.PairPSD
	noise      []float64
	prev, next *synthEntry
}

// NewSynthCache returns a concurrency-safe cache bounded to capacity
// entries (an envelope entry and a noise entry each count as one).
// Campaigns size it to their repetition working set; see
// CampaignOptions.SynthCache.
func NewSynthCache(capacity int) *SynthCache {
	if capacity < 2 {
		capacity = 2
	}
	return &SynthCache{cap: capacity, entries: make(map[productKey]*synthEntry)}
}

// privateSynthCacheCap covers one measurement's working set (one
// envelope + one noise entry) plus an alternating-configuration pair,
// which is as much reuse as a single scratch ever sees.
const privateSynthCacheCap = 4

// newPrivateSynthCache is the scratch-owned, single-goroutine variant.
func newPrivateSynthCache() *SynthCache {
	c := NewSynthCache(privateSynthCacheCap)
	c.private = true
	return c
}

func (c *SynthCache) unlink(e *synthEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *SynthCache) pushFront(e *synthEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// lookup returns the cached entry for key, refreshing its recency. The
// returned entry is only valid under the single-owner contract (private
// mode) or until the next cache operation publishes it; callers read
// one field and let go.
func (c *SynthCache) lookup(key productKey) (*synthEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	return e, true
}

// put publishes a computed product (exactly one of env/noise set),
// evicting the least-recent entry beyond capacity. Evicted buffers go
// to the freelists only in private mode; shared caches let old
// references keep them alive instead.
func (c *SynthCache) put(key productKey, env *specan.PairPSD, noise []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		return
	}
	e := c.freeEntries
	if e != nil {
		c.freeEntries = e.next
		e.next = nil
	} else {
		e = &synthEntry{}
	}
	e.key, e.env, e.noise = key, env, noise
	c.pushFront(e)
	c.entries[key] = e
	c.count++
	for c.count > c.cap {
		ev := c.tail
		c.unlink(ev)
		delete(c.entries, ev.key)
		c.count--
		if c.private {
			if ev.env != nil {
				c.freeEnv = append(c.freeEnv, ev.env)
			}
			if ev.noise != nil {
				c.freeNoise = append(c.freeNoise, ev.noise)
			}
			ev.key, ev.env, ev.noise = productKey{}, nil, nil
			ev.next = c.freeEntries
			c.freeEntries = ev
		}
	}
}

func (c *SynthCache) takeFreeEnv() *specan.PairPSD {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.freeEnv); n > 0 {
		v := c.freeEnv[n-1]
		c.freeEnv = c.freeEnv[:n-1]
		return v
	}
	return nil
}

func (c *SynthCache) takeFreeNoise() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.freeNoise); n > 0 {
		v := c.freeNoise[n-1]
		c.freeNoise = c.freeNoise[:n-1]
		return v
	}
	return nil
}

// envProducts returns the envelope products for key, computing them at
// most once across concurrent callers. compute receives a recycled
// destination (nil when none is available) and must return buffers the
// cache may own — never scratch-aliased ones.
func (c *SynthCache) envProducts(key productKey, compute func(dst *specan.PairPSD) (*specan.PairPSD, error)) (*specan.PairPSD, error) {
	if e, ok := c.lookup(key); ok {
		mSynthHits.Inc()
		return e.env, nil
	}
	if c.private {
		mSynthMisses.Inc()
		v, err := compute(c.takeFreeEnv())
		if err != nil {
			return nil, err
		}
		c.put(key, v, nil)
		return v, nil
	}
	for {
		call, leader := c.envFlight.Lead(key)
		if !leader {
			if v, err := call.Wait(context.Background()); err == nil {
				mSynthHits.Inc()
				return v, nil
			}
			// The leader failed with its own error; retry — hit an
			// entry published meanwhile, or become the new leader.
			continue
		}
		if e, ok := c.lookup(key); ok {
			// Lost the lookup→Lead race against a finishing leader.
			c.envFlight.Finish(key, call, e.env, nil)
			mSynthHits.Inc()
			return e.env, nil
		}
		mSynthMisses.Inc()
		v, err := compute(nil)
		if err != nil {
			c.envFlight.Finish(key, call, nil, err)
			return nil, err
		}
		c.put(key, v, nil)
		c.envFlight.Finish(key, call, v, nil)
		return v, nil
	}
}

// noiseProducts is envProducts for noise PSDs.
func (c *SynthCache) noiseProducts(key productKey, compute func(dst []float64) ([]float64, error)) ([]float64, error) {
	if e, ok := c.lookup(key); ok {
		mSynthHits.Inc()
		return e.noise, nil
	}
	if c.private {
		mSynthMisses.Inc()
		v, err := compute(c.takeFreeNoise())
		if err != nil {
			return nil, err
		}
		c.put(key, nil, v)
		return v, nil
	}
	for {
		call, leader := c.noiseFlight.Lead(key)
		if !leader {
			if v, err := call.Wait(context.Background()); err == nil {
				mSynthHits.Inc()
				return v, nil
			}
			continue
		}
		if e, ok := c.lookup(key); ok {
			c.noiseFlight.Finish(key, call, e.noise, nil)
			mSynthHits.Inc()
			return e.noise, nil
		}
		mSynthMisses.Inc()
		v, err := compute(nil)
		if err != nil {
			c.noiseFlight.Finish(key, call, nil, err)
			return nil, err
		}
		c.put(key, nil, v)
		c.noiseFlight.Finish(key, call, v, nil)
		return v, nil
	}
}

// Len returns the number of cached entries (for tests and diagnostics).
func (c *SynthCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}
