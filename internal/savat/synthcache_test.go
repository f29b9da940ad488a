package savat

import (
	"context"
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/specan"
)

// The LRU must evict strictly least-recently-used entries and, in
// private mode, recycle evicted product buffers into later
// computations.
func TestSynthCacheLRU(t *testing.T) {
	c := NewSynthCache(2)
	nk := func(s string) productKey { return productKey{prefix: s} }
	mk := func(key string, v float64) {
		if _, err := c.noiseProducts(nk(key), func(dst []float64) ([]float64, error) {
			return []float64{v}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk("a", 1)
	mk("b", 2)
	if _, ok := c.lookup(nk("a")); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	mk("c", 3) // evicts b
	if _, ok := c.lookup(nk("b")); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.lookup(nk("a")); !ok {
		t.Error("a should have survived (recently used)")
	}
	if got := c.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}

	p := newPrivateSynthCache()
	var bufs []*float64
	for i := 0; i < privateSynthCacheCap+2; i++ {
		key := productKey{prefix: string(rune('a' + i))}
		v, err := p.noiseProducts(key, func(dst []float64) ([]float64, error) {
			if dst == nil {
				dst = make([]float64, 1)
			}
			dst[0] = float64(i)
			return dst, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, &v[0])
	}
	// Eviction happens on put, after the overflow computation ran, so
	// the freelist lags one computation: the first overflow allocates
	// fresh, every later one reuses the previously evicted buffer —
	// which is all the steady-state allocation budget needs.
	if bufs[privateSynthCacheCap] == bufs[0] {
		t.Error("first overflow computation ran before any eviction; it cannot reuse a buffer")
	}
	if bufs[privateSynthCacheCap+1] != bufs[0] {
		t.Error("second overflow computation should have received the first evicted buffer")
	}

	// Envelope entries recycle through their own freelist.
	pe := newPrivateSynthCache()
	var envs []*specan.PairPSD
	for i := 0; i < privateSynthCacheCap+2; i++ {
		key := productKey{prefix: string(rune('a' + i))}
		v, err := pe.envProducts(key, func(dst *specan.PairPSD) (*specan.PairPSD, error) {
			if dst == nil {
				dst = &specan.PairPSD{}
			}
			return dst, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, v)
	}
	if last := envs[len(envs)-1]; last != envs[0] {
		t.Error("second overflow envelope computation should have received the evicted PairPSD")
	}
}

// A full Figure-9-shaped campaign must serve at least 10 of every 11
// row cells' envelope products from the cache (one synthesis per row)
// and all but one noise PSD per repetition — the hit rates the <0.5 s
// matrix target is built on — and the rates must be visible on the
// process registry, where /metrics and obs.WriteSummary read them.
func TestCampaignSynthCacheHitRate(t *testing.T) {
	if testing.Short() {
		t.Skip("full 11×11 campaign in -short mode")
	}
	obs.Default.SetEnabled(true)
	defer obs.Default.SetEnabled(false)
	hits0, misses0 := mSynthHits.Value(), mSynthMisses.Value()

	mc := machine.Core2Duo()
	cfg := FastConfig()
	cfg.Duration = 1.0 / 16
	_, err := Run(context.Background(), Campaign{Machine: mc, Config: cfg, Events: Events(), Repeats: 1, Seed: 3},
		CampaignOptions{Parallelism: 1}) // deterministic access order: exactly one env miss per row
	if err != nil {
		t.Fatal(err)
	}
	hits := mSynthHits.Value() - hits0
	misses := mSynthMisses.Value() - misses0
	// 11 rows × 11 cells × (1 env + 1 noise) lookups: 11 env misses
	// (one per row), 1 noise miss (one per repetition), the rest hits.
	if misses > 12 {
		t.Errorf("campaign synthesis cache: %d misses, want ≤12 (one per row + one per repetition)", misses)
	}
	if hits < 228 {
		t.Errorf("campaign synthesis cache: %d hits, want ≥228 of 242 lookups", hits)
	}
	t.Logf("synthesis cache: %d hits / %d misses", hits, misses)
}
