package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// testSpec builds a deterministic grid whose cell values encode their
// coordinates, keyed so that results are shareable across runs.
func testSpec(rows, cols, reps int) Spec {
	return Spec{
		Rows: rows, Cols: cols, Reps: reps,
		Key: func(r, c, p int) string {
			return fmt.Sprintf("test-cell/v1|%d|%d|%d", r, c, p)
		},
		Compute: func(_ context.Context, r, c, p int) (float64, error) {
			return float64(r*10000 + c*100 + p), nil
		},
	}
}

func wantValue(r, c, p int) float64 { return float64(r*10000 + c*100 + p) }

func checkValues(t *testing.T, res *Result, spec Spec) {
	t.Helper()
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			for p := 0; p < spec.Reps; p++ {
				if got := res.Values[r][c][p]; got != wantValue(r, c, p) {
					t.Fatalf("cell (%d,%d,%d) = %v, want %v", r, c, p, got, wantValue(r, c, p))
				}
			}
		}
	}
}

func TestRunComputesAllCells(t *testing.T) {
	spec := testSpec(3, 4, 2)
	res, err := New(Options{Parallelism: 4}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, res, spec)
	st := res.Stats
	if st.Total != 24 || st.Done != 24 || st.Computed != 24 || st.Cached != 0 || st.Retries != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Elapsed <= 0 || st.CellsPerSecond() <= 0 {
		t.Errorf("elapsed %v, rate %v", st.Elapsed, st.CellsPerSecond())
	}
}

func TestRunCacheHitMissAccounting(t *testing.T) {
	cache := NewCache(64, nil)
	spec := testSpec(2, 2, 3)

	first, err := New(Options{Cache: cache}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.Computed != 12 || first.Stats.Cached != 0 {
		t.Fatalf("first run stats = %+v", first.Stats)
	}
	cs := cache.Stats()
	if cs.Misses != 12 || cs.Hits != 0 {
		t.Fatalf("cache stats after first run = %+v", cs)
	}

	// Same spec, same cache: every cell must be served from memory.
	ch := make(chan ProgressEvent, 16)
	var events []ProgressEvent
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range ch {
			events = append(events, ev)
		}
	}()
	second, err := New(Options{Cache: cache, Monitor: ch}).Run(context.Background(), spec)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Cached != 12 || second.Stats.Computed != 0 {
		t.Fatalf("second run stats = %+v", second.Stats)
	}
	checkValues(t, second, spec)
	if len(events) != 12 {
		t.Fatalf("got %d monitor events, want 12", len(events))
	}
	for _, ev := range events {
		if !ev.Cached || ev.Attempts != 0 {
			t.Fatalf("expected cached event, got %+v", ev)
		}
	}
	final := events[len(events)-1].Stats
	if final.Done != 12 || final.Cached != 12 {
		t.Errorf("final event stats = %+v", final)
	}
}

// openStore opens a store over dir for a store-backed cache; the cache
// built on it owns and closes it.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestCacheLRUEvictionAndDiskLayer(t *testing.T) {
	dir := t.TempDir()
	cache := NewCache(2, openStore(t, dir))
	k1, k2, k3 := Key("a"), Key("b"), Key("c")
	cache.Put(k1, 1)
	cache.Put(k2, 2)
	cache.Put(k3, 3) // evicts k1 from memory
	if cache.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cache.Len())
	}
	// k1 must come back via the disk layer.
	if v, ok := cache.Get(k1); !ok || v != 1 {
		t.Fatalf("Get(k1) = %v, %v; want 1 from disk", v, ok)
	}
	if cs := cache.Stats(); cs.DiskHits != 1 {
		t.Fatalf("cache stats = %+v, want one disk hit", cs)
	}

	// A second cache over the same directory, after the first is
	// closed, sees everything.
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	cache2 := NewCache(8, openStore(t, dir))
	defer cache2.Close()
	for key, want := range map[string]float64{k1: 1, k2: 2, k3: 3} {
		if v, ok := cache2.Get(key); !ok || v != want {
			t.Fatalf("fresh cache Get = %v, %v; want %v", v, ok, want)
		}
	}

	// Memory-only caches miss cleanly.
	mem := NewCache(2, nil)
	if _, ok := mem.Get(k1); ok {
		t.Fatal("memory-only cache should miss")
	}
}

func TestRetryTransientThenSuccess(t *testing.T) {
	var mu sync.Mutex
	failures := map[string]int{}
	spec := testSpec(2, 1, 2)
	spec.Key = nil
	spec.Compute = func(_ context.Context, r, c, p int) (float64, error) {
		mu.Lock()
		defer mu.Unlock()
		id := fmt.Sprintf("%d/%d/%d", r, c, p)
		if r == 1 && p == 1 && failures[id] < 2 {
			failures[id]++
			return 0, fmt.Errorf("transient glitch %d", failures[id])
		}
		return wantValue(r, c, p), nil
	}
	res, err := New(Options{RetryBackoff: time.Microsecond}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, res, spec)
	if res.Stats.Retries != 2 {
		t.Errorf("Retries = %d, want 2", res.Stats.Retries)
	}
}

func TestRetryGivesUpAfterConfiguredAttempts(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	spec := testSpec(1, 1, 1)
	spec.Compute = func(context.Context, int, int, int) (float64, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return 0, errors.New("always broken")
	}
	_, err := New(Options{MaxAttempts: 3, RetryBackoff: time.Microsecond}).Run(context.Background(), spec)
	if err == nil {
		t.Fatal("expected failure")
	}
	if calls != 3 {
		t.Errorf("compute called %d times, want 3", calls)
	}
	if want := "after 3 attempt"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q should mention %q", err, want)
	}
}

func TestRetryablePredicateStopsRetry(t *testing.T) {
	permanent := errors.New("permanent")
	var mu sync.Mutex
	calls := 0
	spec := testSpec(1, 1, 1)
	spec.Compute = func(context.Context, int, int, int) (float64, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return 0, permanent
	}
	_, err := New(Options{
		MaxAttempts:  5,
		RetryBackoff: time.Microsecond,
		Retryable:    func(err error) bool { return !errors.Is(err, permanent) },
	}).Run(context.Background(), spec)
	if err == nil || !errors.Is(err, permanent) {
		t.Fatalf("err = %v, want wrapped permanent error", err)
	}
	if calls != 1 {
		t.Errorf("compute called %d times, want 1", calls)
	}
}

// Cancel mid-campaign over a store-backed cache, then resume with a
// fresh cache over the reopened store: every cell the cancelled run
// finished is a store hit, and the matrix is identical to an
// uninterrupted run.
func TestCancellationAndResume(t *testing.T) {
	spec := testSpec(3, 3, 2)
	ref, err := New(Options{}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := spec
	var mu sync.Mutex
	computed := 0
	interrupted.Compute = func(c context.Context, r, cc, p int) (float64, error) {
		mu.Lock()
		computed++
		if computed == 5 {
			cancel() // simulate the campaign being killed partway
		}
		mu.Unlock()
		return spec.Compute(c, r, cc, p)
	}
	cacheA := NewCache(64, openStore(t, dir))
	_, err = New(Options{Parallelism: 1, Cache: cacheA}).Run(ctx, interrupted)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	finished := computed // every compute succeeded and was cached
	if err := cacheA.Close(); err != nil {
		t.Fatal(err)
	}
	if finished == 0 || finished == 18 {
		t.Fatalf("cancelled run finished %d of 18 cells, want a partial run", finished)
	}

	// Resume with a fresh cache: only the store carries state.
	cacheB := NewCache(64, openStore(t, dir))
	defer cacheB.Close()
	res, err := New(Options{Cache: cacheB}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cached != finished {
		t.Errorf("resumed run cached %d cells, the cancelled run finished %d", res.Stats.Cached, finished)
	}
	for r := range ref.Values {
		for c := range ref.Values[r] {
			for p := range ref.Values[r][c] {
				if ref.Values[r][c][p] != res.Values[r][c][p] {
					t.Fatalf("cell (%d,%d,%d) differs after resume: %v vs %v",
						r, c, p, ref.Values[r][c][p], res.Values[r][c][p])
				}
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	eng := New(Options{})
	if _, err := eng.Run(context.Background(), Spec{}); err == nil {
		t.Error("empty spec should fail")
	}
	bad := testSpec(2, 2, 2)
	bad.Compute = nil
	if _, err := eng.Run(context.Background(), bad); err == nil {
		t.Error("nil compute should fail")
	}
	both := testSpec(2, 2, 2)
	both.ComputeState = func(_ context.Context, _ any, r, c, p int) (float64, error) {
		return 0, nil
	}
	if _, err := eng.Run(context.Background(), both); err == nil {
		t.Error("both Compute and ComputeState should fail")
	}
	orphan := testSpec(2, 2, 2)
	orphan.NewWorkerState = func() any { return nil }
	if _, err := eng.Run(context.Background(), orphan); err == nil {
		t.Error("NewWorkerState without ComputeState should fail")
	}
}

// Worker state must be created once per worker and threaded through every
// ComputeState call that worker makes, without affecting values.
func TestWorkerStatePerWorker(t *testing.T) {
	type counter struct{ calls int }
	var mu sync.Mutex
	states := make(map[*counter]bool)
	spec := testSpec(4, 4, 2)
	spec.Compute = nil
	spec.NewWorkerState = func() any {
		s := &counter{}
		mu.Lock()
		states[s] = true
		mu.Unlock()
		return s
	}
	spec.ComputeState = func(_ context.Context, state any, r, c, p int) (float64, error) {
		s := state.(*counter)
		mu.Lock()
		if !states[s] {
			mu.Unlock()
			return 0, fmt.Errorf("unknown state %p", s)
		}
		s.calls++
		mu.Unlock()
		return wantValue(r, c, p), nil
	}
	res, err := New(Options{Parallelism: 3}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, res, spec)
	if len(states) == 0 || len(states) > 3 {
		t.Errorf("created %d worker states, want 1..3", len(states))
	}
	total := 0
	for s := range states {
		total += s.calls
	}
	if total != 32 {
		t.Errorf("state-threaded calls = %d, want 32", total)
	}
}

// ComputeState without NewWorkerState is valid: state is nil.
func TestComputeStateWithoutWorkerState(t *testing.T) {
	spec := testSpec(2, 2, 1)
	spec.Compute = nil
	spec.ComputeState = func(_ context.Context, state any, r, c, p int) (float64, error) {
		if state != nil {
			return 0, fmt.Errorf("state = %v, want nil", state)
		}
		return wantValue(r, c, p), nil
	}
	res, err := New(Options{Parallelism: 2}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, res, spec)
}

func TestEngineCumulativeStats(t *testing.T) {
	cache := NewCache(64, nil)
	eng := New(Options{Cache: cache})
	spec := testSpec(2, 2, 1)
	if _, err := eng.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Total != 8 || st.Computed != 4 || st.Cached != 4 {
		t.Errorf("cumulative stats = %+v", st)
	}
}
