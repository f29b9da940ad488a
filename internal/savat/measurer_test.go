package savat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/arena"
	"repro/internal/dsp"
	"repro/internal/machine"
	"repro/internal/obs"
)

// equivSpecs is the fixed spec table every Measurer mode is compared
// on: machine, configuration tweaks, event pair, and seed all vary so
// an rng-order or scratch-state divergence cannot hide behind one lucky
// configuration.
func equivSpecs() []struct {
	name  string
	mc    machine.Config
	tweak func(*Config)
	a, b  Event
	seed  int64
} {
	noisy := machine.Core2Duo()
	noisy.AmplitudeNoiseStd = 0.3
	return []struct {
		name  string
		mc    machine.Config
		tweak func(*Config)
		a, b  Event
		seed  int64
	}{
		{"core2duo-default", machine.Core2Duo(), func(c *Config) {}, ADD, LDM, 1},
		{"pentium-50cm", machine.Pentium3M(), func(c *Config) { c.Distance = 0.50 }, LDL2, STL2, 7},
		{"turion-jitter", machine.TurionX2(), func(c *Config) { c.Jitter.FreqOffset = 0.01 }, DIV, ADD, 42},
		{"noisy-diagonal", noisy, func(c *Config) {}, ADD, ADD, 13},
	}
}

func equivConfig(tweak func(*Config)) Config {
	cfg := FastConfig()
	cfg.Duration = 1.0 / 16
	tweak(&cfg)
	return cfg
}

// identicalMeasurements demands bit-exact agreement — every scalar field
// and every spectrum bin — between two Measurements; both must carry a
// trace or neither.
func identicalMeasurements(t *testing.T, name string, a, b Measurement) {
	t.Helper()
	if a.SAVAT != b.SAVAT || a.BandPower != b.BandPower ||
		a.PairsPerSecond != b.PairsPerSecond || a.LoopCount != b.LoopCount ||
		a.ActualFrequency != b.ActualFrequency || a.A != b.A || a.B != b.B {
		t.Errorf("%s: %+v vs %+v", name, a, b)
		return
	}
	if (a.Trace == nil) != (b.Trace == nil) {
		t.Errorf("%s: trace %v vs %v", name, a.Trace != nil, b.Trace != nil)
		return
	}
	if a.Trace == nil {
		return
	}
	pa, pb := a.Trace.Spectrum.PSD, b.Trace.Spectrum.PSD
	if len(pa) != len(pb) {
		t.Errorf("%s: spectrum lengths %d vs %d", name, len(pa), len(pb))
		return
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Errorf("%s: spectrum bin %d: %g vs %g", name, i, pa[i], pb[i])
			return
		}
	}
}

// The streaming (default) Measurer and the reference pipeline must
// agree within 1e-9 relative (the reference computes the same quantity
// through per-group Welch passes) and on every metadata field.
func TestMeasurerModeAgreement(t *testing.T) {
	for _, s := range equivSpecs() {
		cfg := equivConfig(s.tweak)
		k, err := BuildKernel(s.mc, s.a, s.b, cfg.Frequency)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		stream, err := NewMeasurer(s.mc, cfg, WithTrace()).MeasureKernel(k, rand.New(rand.NewSource(s.seed)))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewMeasurer(s.mc, cfg, WithReference(), WithTrace()).MeasureKernel(k, rand.New(rand.NewSource(s.seed)))
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(stream.SAVAT-ref.SAVAT) / math.Abs(ref.SAVAT); rel > 1e-9 {
			t.Errorf("%s: stream %g vs reference %g (rel %g)", s.name, stream.SAVAT, ref.SAVAT, rel)
		}
		if stream.PairsPerSecond != ref.PairsPerSecond || stream.LoopCount != ref.LoopCount ||
			stream.ActualFrequency != ref.ActualFrequency || stream.A != ref.A || stream.B != ref.B ||
			stream.Trace.ActualRBW != ref.Trace.ActualRBW || stream.Trace.Spectrum.Bins() != ref.Trace.Spectrum.Bins() {
			t.Errorf("%s: metadata stream %+v vs reference %+v", s.name, stream, ref)
		}
	}
}

// WithTrace only adds the spectrum: in both pipelines, the band-only
// default and the traced measurement of the same seeds return
// bit-identical SAVAT and band power, and only the traced one carries
// a trace.
func TestWithTraceKeepsValues(t *testing.T) {
	modes := []struct {
		name string
		opts []MeasureOption
	}{
		{"stream", nil},
		{"reference", []MeasureOption{WithReference()}},
	}
	for _, s := range equivSpecs() {
		cfg := equivConfig(s.tweak)
		k, err := BuildKernel(s.mc, s.a, s.b, cfg.Frequency)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for _, mode := range modes {
			name := s.name + "/" + mode.name
			plain, err := NewMeasurer(s.mc, cfg, mode.opts...).MeasureKernel(k, rand.New(rand.NewSource(s.seed)))
			if err != nil {
				t.Fatal(err)
			}
			traced, err := NewMeasurer(s.mc, cfg, append(mode.opts, WithTrace())...).MeasureKernel(k, rand.New(rand.NewSource(s.seed)))
			if err != nil {
				t.Fatal(err)
			}
			if plain.Trace != nil || traced.Trace == nil {
				t.Errorf("%s: trace set %v without WithTrace, %v with it", name, plain.Trace != nil, traced.Trace != nil)
				continue
			}
			if math.Float64bits(plain.SAVAT) != math.Float64bits(traced.SAVAT) ||
				math.Float64bits(plain.BandPower) != math.Float64bits(traced.BandPower) {
				t.Errorf("%s: band-only SAVAT %g / band %g, traced %g / %g (must be bit-identical)",
					name, plain.SAVAT, plain.BandPower, traced.SAVAT, traced.BandPower)
			}
		}
	}
}

// A Measurement is the caller's: a second measurement on the same
// Measurer — same scratch, same arena — leaves the first result,
// including its trace's spectrum, untouched.
func TestMeasurementOutlivesNextMeasurement(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := equivConfig(func(*Config) {})
	for _, traced := range []bool{false, true} {
		var opts []MeasureOption
		if traced {
			opts = append(opts, WithTrace())
		}
		m := NewMeasurer(mc, cfg, append(opts, WithArena(arena.New()))...)
		first, err := m.Measure(ADD, LDM, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		want := first
		if traced {
			tr := *first.Trace
			tr.Spectrum = &dsp.Spectrum{
				PSD:        append([]float64(nil), first.Trace.Spectrum.PSD...),
				SampleRate: first.Trace.Spectrum.SampleRate,
			}
			want.Trace = &tr
		}
		second, err := m.Measure(DIV, NOI, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		if second.SAVAT == first.SAVAT {
			t.Fatalf("traced=%v: DIV/NOI and ADD/LDM measured the same %g; the test cannot tell them apart", traced, first.SAVAT)
		}
		identicalMeasurements(t, fmt.Sprintf("traced=%v", traced), want, first)
		if traced && second.Trace.Spectrum == first.Trace.Spectrum {
			t.Errorf("two traced measurements share one spectrum")
		}
	}
}

// A Measurer's scratch state is an optimization carrier only: a
// Measurer warmed by measurements of other kernels — alternation cache,
// analyzer working set and product cache all populated — must return
// exactly what a fresh Measurer returns, spectrum included.
func TestMeasurerScratchInvariance(t *testing.T) {
	for _, s := range equivSpecs() {
		cfg := equivConfig(s.tweak)
		k, err := BuildKernel(s.mc, s.a, s.b, cfg.Frequency)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		fresh, err := NewMeasurer(s.mc, cfg, WithTrace()).MeasureKernel(k, rand.New(rand.NewSource(s.seed)))
		if err != nil {
			t.Fatal(err)
		}
		warm := NewMeasurer(s.mc, cfg, WithTrace())
		for i, p := range [][2]Event{{MUL, SUB}, {LDL2, STM}} {
			if _, err := warm.Measure(p[0], p[1], rand.New(rand.NewSource(int64(99+i)))); err != nil {
				t.Fatal(err)
			}
		}
		warmed, err := warm.MeasureKernel(k, rand.New(rand.NewSource(s.seed)))
		if err != nil {
			t.Fatal(err)
		}
		identicalMeasurements(t, s.name+"/warmed-measurer", fresh, warmed)
	}
}

// MeasurePair must reproduce per-repetition MeasureKernel calls with
// the campaign's deterministic cell seeding — the contract that makes
// its values exactly equal to campaign cells for the same seed — and
// scratch reuse across repetitions inside one Measurer must not perturb
// any of them.
func TestMeasurePairMatchesCellSeeding(t *testing.T) {
	for _, s := range equivSpecs() {
		cfg := equivConfig(s.tweak)
		vals, sum, err := NewMeasurer(s.mc, cfg).MeasurePair(s.a, s.b, 3, s.seed)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if len(vals) != 3 {
			t.Fatalf("%s: %d values", s.name, len(vals))
		}
		k, err := BuildKernel(s.mc, s.a, s.b, cfg.Frequency)
		if err != nil {
			t.Fatal(err)
		}
		for r := range vals {
			m, err := NewMeasurer(s.mc, cfg).MeasureKernelSeeds(k, CampaignSeeds(s.seed, s.a, r))
			if err != nil {
				t.Fatal(err)
			}
			if m.SAVAT != vals[r] {
				t.Errorf("%s: repetition %d: MeasurePair %g vs MeasureKernel %g", s.name, r, vals[r], m.SAVAT)
			}
		}
		if sum.N != 3 {
			t.Errorf("%s: summary %+v", s.name, sum)
		}
	}
}

// Every measurement records one render span (band-only or traced) and
// every kernel the Measurer builds one calibrate span, on the
// Measurer's registry.
func TestStageSpans(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := equivConfig(func(*Config) {})
	for _, opts := range [][]MeasureOption{nil, {WithTrace()}} {
		reg := obs.NewRegistry()
		reg.SetEnabled(true)
		m := NewMeasurer(mc, cfg, append(opts, WithObs(reg))...)
		if _, err := m.Measure(ADD, LDM, rand.New(rand.NewSource(1))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.MeasurePair(ADD, DIV, 2, 1); err != nil {
			t.Fatal(err)
		}
		for name, want := range map[string]uint64{
			"savat.stage.calibrate": 2, // Measure's kernel and MeasurePair's
			"savat.stage.render":    3, // one per measurement
		} {
			if got := reg.Histogram(name).Count(); got != want {
				t.Errorf("%d options: %s recorded %d spans, want %d", len(opts), name, got, want)
			}
		}
	}
}
