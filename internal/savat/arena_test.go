package savat

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/arena"
	"repro/internal/machine"
)

// An arena-backed Measurer must produce bit-identical values to a
// heap-backed one, cell after cell on one long-lived Measurer — exactly
// how a campaign worker lives. The second lap re-measures with fresh
// seeds through the warm, already-carved working set.
func TestMeasurerArenaMatchesHeap(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	cfg.Duration = 1.0 / 16
	pairs := [][2]Event{{ADD, LDM}, {LDL2, STL2}, {ADD, ADD}}

	heap := NewMeasurer(mc, cfg)
	onArena := NewMeasurer(mc, cfg, WithArena(arena.New()))
	for lap := 0; lap < 2; lap++ {
		for _, p := range pairs {
			k, err := BuildKernel(mc, p[0], p[1], cfg.Frequency)
			if err != nil {
				t.Fatal(err)
			}
			seeds := CampaignSeeds(7, p[0], lap)
			want, err := heap.MeasureKernelSeeds(k, seeds)
			if err != nil {
				t.Fatal(err)
			}
			got, err := onArena.MeasureKernelSeeds(k, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if got.SAVAT != want.SAVAT {
				t.Errorf("lap %d %v/%v: arena %g != heap %g (must be bit-identical)", lap, p[0], p[1], got.SAVAT, want.SAVAT)
			}
		}
	}
}

// An arena never rewinds, so a working buffer carved per measurement
// would grow it without bound. After one warm measurement, the
// footprint of an arena-backed Measurer must stay unchanged across ten
// more measurements of different kernels with fresh seeds — every one a
// synthesis-cache miss that runs the whole streaming walk.
func TestArenaFootprintStable(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	cfg.Duration = 1.0 / 16
	ar := arena.New()
	m := NewMeasurer(mc, cfg, WithArena(ar))
	rng := rand.New(rand.NewSource(3))
	if _, err := m.Measure(ADD, LDM, rng); err != nil {
		t.Fatal(err)
	}
	warm := ar.Footprint()
	if warm == 0 {
		t.Fatal("the warm measurement carved nothing from the arena")
	}
	events := Events()
	for i := 0; i < 10; i++ {
		a, b := events[i%len(events)], events[(3*i+1)%len(events)]
		if _, err := m.Measure(a, b, rng); err != nil {
			t.Fatal(err)
		}
		if got := ar.Footprint(); got != warm {
			t.Fatalf("measurement %d (%v/%v): arena footprint %d bytes, %d after the warm measurement", i, a, b, got, warm)
		}
	}
}

// Concurrent row-mates with per-goroutine arenas sharing one
// SynthCache: the campaign worker topology. The arena is single-owner
// state, but its carved buffers feed computations whose PUBLISHED
// products land in the shared cache — under -race (CI runs it) this
// asserts no arena-backed buffer leaks into cross-worker state, and
// every contended result must still be bit-identical to a cold run.
func TestArenaWorkersConcurrentRowMates(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	cfg.Duration = 1.0 / 16
	row := ADD
	cols := []Event{LDM, STM, MUL, DIV, NOI, LDL2}
	seeds := CampaignSeeds(42, row, 0)

	want := make([]float64, len(cols))
	for i, c := range cols {
		k, err := BuildKernel(mc, row, c, cfg.Frequency)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMeasurer(mc, cfg).MeasureKernelSeeds(k, seeds)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m.SAVAT
	}

	const lapsPerCol = 3
	cache := NewSynthCache(8)
	got := make([]float64, len(cols)*lapsPerCol)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := cols[g%len(cols)]
			k, err := BuildKernel(mc, row, c, cfg.Frequency)
			if err != nil {
				errs[g] = err
				return
			}
			m, err := NewMeasurer(mc, cfg, WithSynthCache(cache), WithArena(arena.New())).
				MeasureKernelSeeds(k, seeds)
			if err != nil {
				errs[g] = err
				return
			}
			got[g] = m.SAVAT
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if want[g%len(cols)] != got[g] {
			t.Errorf("goroutine %d (%v/%v): arena worker %g != cold %g (must be bit-identical)",
				g, row, cols[g%len(cols)], got[g], want[g%len(cols)])
		}
	}
}
