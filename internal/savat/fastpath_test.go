package savat

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/machine"
)

// relDiff returns |a−b| / max(|a|,|b|) (0 when both are 0).
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// The fast path must reproduce the reference pipeline on every cell of
// a full Figure-9 matrix within 1e-9 relative — the acceptance bound of
// the shared-envelope factorization.
func TestFastPathMatchesReferenceFigure9(t *testing.T) {
	if testing.Short() {
		t.Skip("full 11×11 dual-pipeline matrix in -short mode")
	}
	mc := machine.Core2Duo()
	cfg := FastConfig()
	events := Events()
	fastM := NewMeasurer(mc, cfg) // one warm Measurer for every cell, like a campaign worker
	var worst float64
	for i, a := range events {
		for j, b := range events {
			k, err := BuildKernel(mc, a, b, cfg.Frequency)
			if err != nil {
				t.Fatalf("%v/%v: %v", a, b, err)
			}
			seed := mixSeed(1, uint64(a), uint64(b))
			fast, err := fastM.MeasureKernel(k, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%v/%v fast: %v", a, b, err)
			}
			ref, err := NewMeasurer(mc, cfg, WithReference()).MeasureKernel(k, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%v/%v reference: %v", a, b, err)
			}
			d := relDiff(fast.SAVAT, ref.SAVAT)
			if d > worst {
				worst = d
			}
			if d > 1e-9 {
				t.Errorf("cell [%d][%d] %v/%v: fast %g vs reference %g (rel %g)",
					i, j, a, b, fast.SAVAT, ref.SAVAT, d)
			}
			if fast.LoopCount != ref.LoopCount || fast.PairsPerSecond != ref.PairsPerSecond {
				t.Errorf("%v/%v metadata mismatch: loop %d/%d pairs %g/%g",
					a, b, fast.LoopCount, ref.LoopCount, fast.PairsPerSecond, ref.PairsPerSecond)
			}
		}
	}
	t.Logf("worst relative difference across %d cells: %g", len(events)*len(events), worst)
}

// Equivalence must hold across machine, distance, jitter, and noise
// variations — not just the benchmark configuration.
func TestFastPathMatchesReferenceRandomized(t *testing.T) {
	base := FastConfig()
	base.Duration = 1.0 / 16
	type variant struct {
		name  string
		mc    machine.Config
		tweak func(*Config)
	}
	turion := machine.TurionX2()
	noisy := machine.Core2Duo()
	noisy.AmplitudeNoiseStd = 0.4
	quietAsym := machine.Core2Duo()
	quietAsym.AsymmetrySourceAmp = 0
	variants := []variant{
		{"core2duo-50cm", machine.Core2Duo(), func(c *Config) { c.Distance = 0.50 }},
		{"turion-100cm", turion, func(c *Config) { c.Distance = 1.00 }},
		{"noisy-amp", noisy, func(c *Config) {}},
		{"no-asymmetry-heavy-jitter", quietAsym, func(c *Config) {
			c.Jitter.DriftStd = 0.002
			c.Jitter.FreqOffset = 0.01
			c.Jitter.AmpNoiseCorr = 0.9
		}},
		{"wide-band-coarse-rbw", machine.Core2Duo(), func(c *Config) {
			c.BandHalfWidth = 4e3
			c.Analyzer.RBW = 50
		}},
	}
	pairs := [][2]Event{{ADD, LDM}, {LDL2, STL2}, {DIV, ADD}}
	for vi, v := range variants {
		cfg := base
		v.tweak(&cfg)
		fastM := NewMeasurer(v.mc, cfg) // reused across the variant's repetitions
		a, b := pairs[vi%len(pairs)][0], pairs[vi%len(pairs)][1]
		k, err := BuildKernel(v.mc, a, b, cfg.Frequency)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		for rep := 0; rep < 2; rep++ {
			seed := mixSeed(uint64(100+vi), uint64(a), uint64(b), uint64(rep))
			fast, err := fastM.MeasureKernel(k, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s fast: %v", v.name, err)
			}
			ref, err := NewMeasurer(v.mc, cfg, WithReference()).MeasureKernel(k, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s reference: %v", v.name, err)
			}
			if d := relDiff(fast.SAVAT, ref.SAVAT); d > 1e-9 {
				t.Errorf("%s rep %d: fast %g vs reference %g (rel %g)",
					v.name, rep, fast.SAVAT, ref.SAVAT, d)
			}
		}
	}
}

// A warmed Measurer must keep the steady-state streaming path free of
// per-call sample-buffer allocations: only a handful of small
// fixed-size allocations (the Measurement itself) may remain, and the
// allocated bytes per call must be far below one sample buffer.
func TestMeasureKernelScratchAllocs(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	cfg.Duration = 1.0 / 16 // 16384 samples — a buffer regression is still ≥256 KiB
	k, err := BuildKernel(mc, ADD, LDL2, cfg.Frequency)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeasurer(mc, cfg)
	rng := rand.New(rand.NewSource(7))
	// Warm every lazily-sized buffer and the alternation cache.
	if _, err := m.MeasureKernel(k, rng); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(10, func() {
		if _, err := m.MeasureKernel(k, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("steady-state MeasureKernel allocates %.0f objects per call, want ≤8", allocs)
	}

	// Bytes, not just counts: one leaked sample buffer would be ≥256 KiB.
	var before, after runtime.MemStats
	const runs = 10
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := m.MeasureKernel(k, rng); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	if perRun > 16*1024 {
		t.Errorf("steady-state MeasureKernel allocates %.0f bytes per call, want ≤16384", perRun)
	}
}

// The scratch is an optimization, never an observable: one Measurer
// reused across kernels — back and forth, so every cache holds state
// from another kernel — must give the same values as fresh Measurers,
// for each of two configurations.
func TestMeasureScratchReuseValueIndependent(t *testing.T) {
	mc := machine.Core2Duo()
	cfgA := FastConfig()
	cfgA.Duration = 1.0 / 16
	cfgB := cfgA
	cfgB.Distance = 0.5
	cfgB.Analyzer.RBW = 100
	for ci, cfg := range []Config{cfgA, cfgB} {
		kA, err := BuildKernel(mc, ADD, LDM, cfg.Frequency)
		if err != nil {
			t.Fatal(err)
		}
		kB, err := BuildKernel(mc, MUL, DIV, cfg.Frequency)
		if err != nil {
			t.Fatal(err)
		}
		shared := NewMeasurer(mc, cfg)
		for i, k := range []*Kernel{kA, kB, kA, kB, kA} {
			seed := int64(1000 + i)
			got, err := shared.MeasureKernel(k, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewMeasurer(mc, cfg).MeasureKernel(k, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if got.SAVAT != want.SAVAT {
				t.Errorf("config %d run %d: reused Measurer %g, fresh Measurer %g", ci, i, got.SAVAT, want.SAVAT)
			}
		}
	}
}

func TestMeasureKernelScratchErrors(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := FastConfig()
	k, err := BuildKernel(mc, ADD, ADD, cfg.Frequency)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMeasurer(mc, cfg).MeasureKernel(k, nil); err == nil {
		t.Error("nil rng should fail")
	}
	bad := cfg
	bad.Duration = -1
	if _, err := NewMeasurer(mc, bad).MeasureKernel(k, rand.New(rand.NewSource(1))); err == nil {
		t.Error("invalid config should fail")
	}
}
