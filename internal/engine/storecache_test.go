package engine

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// A store-backed cache must persist every Put across Close/reopen on
// the same directory, bit-exactly — non-finite values included.
func TestStoreCachePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	cache := NewCache(8, openStore(t, dir))
	vals := map[string]float64{
		Key("cell-a"): 42.5,
		Key("cell-b"): -1.25e-21,
		Key("cell-c"): math.Inf(1),
		Key("cell-d"): math.NaN(),
	}
	for k, v := range vals {
		cache.Put(k, v)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := NewCache(1, openStore(t, dir)) // capacity 1: force disk reads
	defer reopened.Close()
	for k, v := range vals {
		got, ok := reopened.Get(k)
		if !ok {
			t.Fatalf("key %s missing after reopen", k[:8])
		}
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("key %s: %v → %v (bits must match)", k[:8], v, got)
		}
	}
	if st := reopened.Stats(); st.DiskHits == 0 {
		t.Fatalf("capacity-1 cache served without the store: %+v", st)
	}
}

// Two engines sharing one Flight and one store-backed Cache must
// compute each distinct cell exactly once between them, even with the
// store's write-behind batching in the Put path (satellite 3's
// exactly-once condition on a durable campaign).
func TestFlightDedupOnStoreBackedCache(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{FlushEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(DefaultCacheCapacity, st)
	fl := NewFlight()
	var computes int64

	spec := Spec{
		Rows: 3, Cols: 3, Reps: 2,
		Key: func(row, col, rep int) string {
			return Key(fmt.Sprintf("store-flight|%d|%d|%d", row, col, rep))
		},
		Compute: func(_ context.Context, row, col, rep int) (float64, error) {
			atomic.AddInt64(&computes, 1)
			time.Sleep(2 * time.Millisecond) // widen the in-flight window
			return float64(row*100 + col*10 + rep), nil
		},
	}
	unique := spec.Rows * spec.Cols * spec.Reps

	var wg sync.WaitGroup
	results := make([]*Result, 2)
	errs := make([]error, 2)
	for i := range results {
		eng := New(Options{Parallelism: 4, Cache: cache, Flight: fl})
		wg.Add(1)
		go func(i int, eng *Engine) {
			defer wg.Done()
			results[i], errs[i] = eng.Run(context.Background(), spec)
		}(i, eng)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}
	if got := atomic.LoadInt64(&computes); got != int64(unique) {
		t.Errorf("compute ran %d times, want exactly %d", got, unique)
	}
	stA, stB := results[0].Stats, results[1].Stats
	if stA.Computed+stB.Computed != unique {
		t.Errorf("computed %d+%d, want sum %d", stA.Computed, stB.Computed, unique)
	}
	if sat := stA.Cached + stB.Cached + stA.Deduped + stB.Deduped; sat != unique {
		t.Errorf("cached+deduped %d, want %d", sat, unique)
	}

	// Everything the campaigns computed is durable after Close, and a
	// third campaign over a fresh cache on the same store directory is
	// served entirely from disk.
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	resumed := NewCache(DefaultCacheCapacity, openStore(t, dir))
	defer resumed.Close()
	third, err := New(Options{Parallelism: 4, Cache: resumed}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if third.Stats.Computed != 0 || third.Stats.Cached != unique {
		t.Errorf("store-resumed run stats = %+v, want all %d cached", third.Stats, unique)
	}
	for row := 0; row < spec.Rows; row++ {
		for col := 0; col < spec.Cols; col++ {
			for rep := 0; rep < spec.Reps; rep++ {
				want := float64(row*100 + col*10 + rep)
				if got := third.Values[row][col][rep]; got != want {
					t.Fatalf("cell (%d,%d,%d) = %v, want %v", row, col, rep, got, want)
				}
			}
		}
	}
}
