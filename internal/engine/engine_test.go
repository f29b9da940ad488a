package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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
		Compute: func(_ context.Context, _ any, r, c, p int) (float64, error) {
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
	res, err := Run(context.Background(), spec, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, res, spec)
	st := res.Stats
	if st.Total != 24 || st.Done != 24 || st.Computed != 24 || st.Cached != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Elapsed <= 0 || st.CellsPerSecond() <= 0 {
		t.Errorf("elapsed %v, rate %v", st.Elapsed, st.CellsPerSecond())
	}
}

func TestRunCacheHitMissAccounting(t *testing.T) {
	cache := NewCache(64, nil)
	spec := testSpec(2, 2, 3)

	first, err := Run(context.Background(), spec, Options{Cache: cache})
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
	second, err := Run(context.Background(), spec, Options{Cache: cache, Monitor: ch})
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
		if !ev.Cached || ev.Duration != 0 {
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

// Cells are deterministic, so a failing cell fails its campaign on the
// first call: Compute runs once, the error wraps the cell's own error
// with its coordinates, and no progress event is sent for the cell.
func TestFailingCellComputedOnce(t *testing.T) {
	broken := errors.New("always broken")
	var calls atomic.Int64
	spec := testSpec(1, 1, 1)
	spec.Compute = func(context.Context, any, int, int, int) (float64, error) {
		calls.Add(1)
		return 0, broken
	}
	ch := make(chan ProgressEvent, 1)
	_, err := Run(context.Background(), spec, Options{Monitor: ch})
	if !errors.Is(err, broken) {
		t.Fatalf("err = %v, want it to wrap %v", err, broken)
	}
	if want := "engine: cell (0,0,0): "; !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q should start with %q", err, want)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("compute called %d times, want 1", n)
	}
	for ev := range ch {
		t.Errorf("unexpected event for the failed cell: %+v", ev)
	}
}

// Cancel mid-campaign over a store-backed cache, then resume with a
// fresh cache over the reopened store: every cell the cancelled run
// finished is a store hit, and the matrix is identical to an
// uninterrupted run.
func TestCancellationAndResume(t *testing.T) {
	spec := testSpec(3, 3, 2)
	ref, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := spec
	var mu sync.Mutex
	computed := 0
	interrupted.Compute = func(c context.Context, state any, r, cc, p int) (float64, error) {
		mu.Lock()
		computed++
		if computed == 5 {
			cancel() // simulate the campaign being killed partway
		}
		mu.Unlock()
		return spec.Compute(c, state, r, cc, p)
	}
	cacheA := NewCache(64, openStore(t, dir))
	_, err = Run(ctx, interrupted, Options{Parallelism: 1, Cache: cacheA})
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
	res, err := Run(context.Background(), spec, Options{Cache: cacheB})
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
	if _, err := Run(context.Background(), Spec{}, Options{}); err == nil {
		t.Error("empty spec should fail")
	}
	bad := testSpec(2, 2, 2)
	bad.Compute = nil
	if _, err := Run(context.Background(), bad, Options{}); err == nil {
		t.Error("nil compute should fail")
	}
}

// Worker state must be created once per worker and threaded through every
// Compute call that worker makes, without affecting values.
func TestWorkerStatePerWorker(t *testing.T) {
	type counter struct{ calls int }
	var mu sync.Mutex
	states := make(map[*counter]bool)
	spec := testSpec(4, 4, 2)
	spec.NewWorkerState = func() any {
		s := &counter{}
		mu.Lock()
		states[s] = true
		mu.Unlock()
		return s
	}
	spec.Compute = func(_ context.Context, state any, r, c, p int) (float64, error) {
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
	res, err := Run(context.Background(), spec, Options{Parallelism: 3})
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

// Without NewWorkerState, Compute receives a nil state.
func TestComputeWithoutWorkerState(t *testing.T) {
	spec := testSpec(2, 2, 1)
	spec.Compute = func(_ context.Context, state any, r, c, p int) (float64, error) {
		if state != nil {
			return 0, fmt.Errorf("state = %v, want nil", state)
		}
		return wantValue(r, c, p), nil
	}
	res, err := Run(context.Background(), spec, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, res, spec)
}

// Progress events arrive in completion order: Stats.Done rises by
// exactly one from each event to the next, so a consumer that keeps the
// last event's Stats (the campaign service, cmd/savat's interrupt line)
// always holds the newest snapshot. Many workers finishing trivial cells
// race to record, which is where a send outside the accounting lock
// reorders events.
func TestMonitorEventsInCompletionOrder(t *testing.T) {
	const runs, rows, cols, reps = 20, 20, 20, 5
	for run := 0; run < runs; run++ {
		ch := make(chan ProgressEvent, 64)
		bad := make(chan string, 1)
		go func() {
			prev := 0
			for ev := range ch {
				if ev.Stats.Done != prev+1 {
					select {
					case bad <- fmt.Sprintf("event Done=%d after Done=%d", ev.Stats.Done, prev):
					default:
					}
				}
				prev = ev.Stats.Done
			}
			close(bad)
		}()
		if _, err := Run(context.Background(), testSpec(rows, cols, reps), Options{Parallelism: 4, Monitor: ch}); err != nil {
			t.Fatal(err)
		}
		if msg, ok := <-bad; ok {
			t.Fatalf("run %d: %s", run, msg)
		}
	}
}
