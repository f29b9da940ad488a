package savat

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/counter"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/store"
)

func matricesEqual(t *testing.T, a, b *MatrixStats) {
	t.Helper()
	for i := range a.Mean.Vals {
		for j := range a.Mean.Vals[i] {
			if a.Mean.Vals[i][j] != b.Mean.Vals[i][j] {
				t.Fatalf("mean cell (%d,%d) differs: %v vs %v", i, j, a.Mean.Vals[i][j], b.Mean.Vals[i][j])
			}
			if a.Cells[i][j] != b.Cells[i][j] {
				t.Fatalf("summary cell (%d,%d) differs: %+v vs %+v", i, j, a.Cells[i][j], b.Cells[i][j])
			}
		}
	}
}

// The acceptance scenario: a campaign killed partway via context
// cancellation and resumed through a reopened store-backed cache yields
// the same MatrixStats as an uninterrupted run with the same seed, and
// every cell the killed run finished is a store hit on resume.
func TestRunCampaignContextCancelAndResume(t *testing.T) {
	c := Campaign{
		Machine: machine.Core2Duo(),
		Config:  FastConfig(),
		Events:  []Event{ADD, LDM},
		Repeats: 2,
		Seed:    7,
	}

	ref, err := Run(context.Background(), c, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the campaign after the first finished cell.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := make(chan engine.ProgressEvent, 16)
	finished := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range ch {
			finished++
			cancel()
		}
	}()
	killed := CampaignOptions{
		Parallelism: 1,
		Monitor:     ch,
		Cache:       engine.NewCache(64, openStore(t, dir)),
	}
	_, err = Run(ctx, c, killed)
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := killed.Cache.Close(); err != nil {
		t.Fatal(err)
	}
	if finished == 0 || finished == 8 {
		t.Fatalf("killed campaign finished %d of 8 cells, want a partial run", finished)
	}

	// Resume with a fresh cache over the reopened store: only the store
	// carries state.
	resumed := CampaignOptions{Cache: engine.NewCache(64, openStore(t, dir))}
	defer resumed.Cache.Close()
	res, err := Run(context.Background(), c, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine.Cached != finished {
		t.Errorf("resumed campaign cached %d cells, the killed run finished %d", res.Engine.Cached, finished)
	}
	matricesEqual(t, ref, res)
}

// openStore opens a durable store over dir; the cache built on it owns
// and closes it.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// Cells are keyed by event identity, so a campaign over a reordered
// event subset is served entirely from the cache, and campaign cells
// agree exactly with MeasurePair.
func TestRunCampaignCellIdentityCache(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	c := Campaign{Machine: mc, Config: cfg, Events: []Event{ADD, LDM}, Repeats: 2, Seed: 3}
	rt := CampaignOptions{Cache: engine.NewCache(64, nil)}
	first, err := Run(context.Background(), c, rt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Engine.Computed != 8 || first.Engine.Cached != 0 {
		t.Fatalf("first run engine stats = %+v", first.Engine)
	}

	c.Events = []Event{LDM, ADD} // same pairs, different matrix positions
	second, err := Run(context.Background(), c, rt)
	if err != nil {
		t.Fatal(err)
	}
	if second.Engine.Cached != 8 || second.Engine.Computed != 0 {
		t.Fatalf("reordered run engine stats = %+v", second.Engine)
	}
	if first.Mean.MustAt(ADD, LDM) != second.Mean.MustAt(ADD, LDM) {
		t.Error("cell value differs across event orderings")
	}

	// Campaign cells and MeasurePair share seeds and kernels exactly.
	vals, _, err := NewMeasurer(mc, cfg).MeasurePair(ADD, LDM, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	mean := (vals[0] + vals[1]) / 2
	if got := first.Mean.MustAt(ADD, LDM); got != mean {
		t.Errorf("campaign cell %v != MeasurePair mean %v", got, mean)
	}
}

// The Monitor event stream subsumes the removed per-pair Progress
// callback: tallying events by (Row, Col) recovers pair completion
// exactly, and the running Stats on the final event account for every
// cell.
func TestRunCampaignMonitorPairCompletion(t *testing.T) {
	const repeats = 2
	ch := make(chan engine.ProgressEvent, 16)
	events := 0
	pairsDone := 0
	var last engine.ProgressEvent
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		perPair := make(map[[2]int]int)
		for ev := range ch {
			events++
			last = ev
			p := [2]int{ev.Row, ev.Col}
			perPair[p]++
			if perPair[p] == repeats {
				pairsDone++
			}
		}
	}()
	c := Campaign{
		Machine: machine.Core2Duo(),
		Config:  FastConfig(),
		Events:  []Event{ADD, LDM},
		Repeats: repeats,
		Seed:    1,
	}
	if _, err := Run(context.Background(), c, CampaignOptions{Monitor: ch}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if pairsDone != 4 {
		t.Fatalf("derived %d finished pairs, want 4", pairsDone)
	}
	if events != 8 {
		t.Errorf("Monitor saw %d events, want 8 (cells)", events)
	}
	if last.Stats.Done != 8 || last.Stats.Total != 8 {
		t.Errorf("final event stats = %+v", last.Stats)
	}
	if last.Health.QueueDepth != 0 {
		t.Errorf("final event health = %+v", last.Health)
	}
}

// Early validation failures must still close the Monitor channel.
func TestRunCampaignContextClosesMonitorOnValidationError(t *testing.T) {
	ch := make(chan engine.ProgressEvent)
	done := make(chan struct{})
	go func() {
		for range ch {
		}
		close(done)
	}()
	_, err := Run(context.Background(), Campaign{Config: FastConfig(), Repeats: 1}, CampaignOptions{Monitor: ch})
	if err == nil {
		t.Fatal("bad machine should fail")
	}
	<-done // hangs here if the channel was leaked open
}

// An out-of-range event is rejected by Campaign.Validate before the
// engine starts: no cell is scheduled (so none fails as a cell error),
// and the Monitor closes without a single event.
func TestRunRejectsInvalidEventBeforeEngine(t *testing.T) {
	ch := make(chan engine.ProgressEvent, 16)
	events := 0
	done := make(chan struct{})
	go func() {
		for range ch {
			events++
		}
		close(done)
	}()
	c := Campaign{Machine: machine.Core2Duo(), Config: FastConfig(), Events: []Event{ADD, Event(200)}, Repeats: 1, Seed: 1}
	if _, err := Run(context.Background(), c, CampaignOptions{Monitor: ch}); err == nil {
		t.Fatal("invalid event should fail")
	}
	<-done
	if events != 0 {
		t.Errorf("Monitor saw %d events for a campaign rejected up front, want 0", events)
	}
}

// RunCountermeasureReport forwards no per-cell events but, like Run,
// closes a caller-supplied Monitor when it returns — on the error path
// and after a successful report alike — so a caller ranging over it
// never blocks.
func TestRunCountermeasureReportClosesMonitor(t *testing.T) {
	c := Campaign{Machine: machine.Core2Duo(), Config: FastConfig(), Events: []Event{ADD, LDM}, Repeats: 1, Seed: 1}
	c.Config.Duration = 1.0 / 16
	chained := c
	chained.Config.Countermeasures = counter.Chain{{Name: counter.NoopInsert, Param: 0.1}}
	for _, tc := range []struct {
		name    string
		c       Campaign
		wantErr bool
	}{
		{"chain-less", c, true},
		{"report", chained, false},
	} {
		ch := make(chan engine.ProgressEvent)
		events := 0
		done := make(chan struct{})
		go func() {
			for range ch {
				events++
			}
			close(done)
		}()
		_, err := RunCountermeasureReport(context.Background(), tc.c, CampaignOptions{Monitor: ch})
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Monitor still open after the report returned", tc.name)
		}
		if events != 0 {
			t.Errorf("%s: Monitor saw %d events, want 0", tc.name, events)
		}
	}
}
