package savat

import (
	"fmt"
	"math/rand"

	"repro/internal/arena"
	"repro/internal/counter"
	"repro/internal/emsim"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Measurer is the single entry point to the SAVAT measurement
// pipeline: one machine and measurement configuration, bound at
// construction, measured through one of two pipeline implementations.
// The zero option set is the right choice almost always — the
// segment-fused streaming fast path (O(segment) working set, no
// sample-sized buffers) on a Measurer-owned scratch:
//
//	m := savat.NewMeasurer(mc, cfg)
//	meas, err := m.Measure(savat.ADD, savat.SUB, rng)
//
// Options:
//
//	WithReference()    direct-rendering reference pipeline (the oracle)
//	WithSynthCache(c)  shared synthesis-product cache (campaign row reuse)
//	WithArena(a)       arena-backed working set (zero steady-state allocation)
//	WithTrace()        also return the full spectrum trace (Figure 7/8 plots)
//
// Stage metrics (savat.measure, savat.stage.*, savat.altcache.*) go to
// the process registry obs.Default.
//
// Measurements are returned by value and share no memory with the
// Measurer: by default they carry the band power and SAVAT value only,
// computed from the band's spectrum bins alone; WithTrace adds a fresh
// trace the caller owns. A Measurer is NOT safe for concurrent use —
// the campaign engine gives each worker its own.
type Measurer struct {
	mc        machine.Config
	cfg       Config
	reference bool
	trace     bool
	scratch   *measureScratch // nil for the reference pipeline
	cache     *SynthCache
	arena     *arena.Arena

	// Effective measurement setup, resolved lazily on first measurement
	// (NewMeasurer deliberately cannot fail): the configured channel's
	// Apply over mc, the countermeasure chain's model-side effects over
	// cfg, and the channel's distance law. For the "em" channel with an
	// empty chain the effective setup IS (mc, cfg) value-for-value, which
	// is what keeps the redesigned seam bit-identical to the old
	// pipeline.
	resolved bool
	effMC    machine.Config
	effCfg   Config
	effLaw   emsim.DistanceLaw
	effErr   error

	// Synthesis-product cache key prefixes: every key parameter except
	// the stage seed is fixed by the effective (mc, cfg), so the
	// prefixes are built once and per-measurement keys are
	// allocation-free structs.
	envKeyPrefix, noiseKeyPrefix string
}

// MeasureOption configures a Measurer at construction.
type MeasureOption func(*Measurer)

// WithTrace makes every Measurement carry its full display spectrum in
// Measurement.Trace — a fresh trace per measurement, owned by the
// caller. Without it the pipeline assembles only the spectrum bins the
// band power reads, which is what campaigns and every caller that
// needs only SAVAT values want; the values are bit-identical either
// way.
func WithTrace() MeasureOption {
	return func(m *Measurer) { m.trace = true }
}

// WithReference selects the direct-rendering reference pipeline: every
// coherence group synthesized in the time domain and analyzed with its
// own Welch pass. It consumes the same rng draws as the fast path and
// agrees with it within 1e-9 relative — it is the fast path's oracle.
func WithReference() MeasureOption {
	return func(m *Measurer) { m.reference = true }
}

// WithSynthCache makes the Measurer read envelope and noise spectral
// products through c — a concurrency-safe cache from NewSynthCache,
// typically shared by many Measurers — instead of a private
// single-owner cache. Campaign workers share one cache this way so an
// entire matrix row reuses its row event's envelope products (see
// CampaignSeeds). A nil cache is equivalent to omitting the option.
// The cache never influences values: hits are bit-identical to the
// computation they replace.
func WithSynthCache(c *SynthCache) MeasureOption {
	return func(m *Measurer) { m.cache = c }
}

// WithArena backs the Measurer's scratch working set — rolling Welch
// windows, in-flight segment transforms, the display accumulator —
// with the single-owner bump allocator a (see internal/arena), so
// steady-state measurements perform zero heap allocations. The working
// set is carved on the first measurement and reused by every later one,
// so the arena stops growing there. It must not be shared with any
// other Measurer.
// Values are identical with or without an arena; a nil a is equivalent
// to omitting the option. The campaign engine installs one per worker.
func WithArena(a *arena.Arena) MeasureOption {
	return func(m *Measurer) { m.arena = a }
}

// NewMeasurer binds a machine and measurement configuration and
// applies the options. Configuration problems surface on the first
// measurement (wrapped sentinel errors — see Validate), not here.
func NewMeasurer(mc machine.Config, cfg Config, opts ...MeasureOption) *Measurer {
	m := &Measurer{mc: mc, cfg: cfg}
	for _, o := range opts {
		o(m)
	}
	if !m.reference {
		m.scratch = newMeasureScratch(m.cache, m.arena)
	}
	return m
}

// resolve derives the effective measurement setup once: the channel's
// source-table rewrite and distance law, then the countermeasure
// chain's model-side effects (supply filters on the conducted
// couplings, noise generators on the environment, run-time timing
// randomness on the jitter). Configuration problems surface here as
// the same wrapped sentinels Config.Validate reports.
func (m *Measurer) resolve() (machine.Config, Config, emsim.DistanceLaw, error) {
	if !m.resolved {
		m.resolved = true
		ch, err := machine.ChannelByName(m.cfg.Channel)
		if err != nil {
			m.effErr = fmt.Errorf("%w: %q (have %v)", ErrUnknownChannel, m.cfg.Channel, machine.ChannelNames())
		} else if err := m.cfg.Countermeasures.Validate(); err != nil {
			m.effErr = fmt.Errorf("%w: %v", ErrBadCountermeasure, err)
		} else {
			chain := m.cfg.Countermeasures
			m.effMC = ch.Apply(m.mc)
			m.effMC.Sources = counter.ApplySources(m.effMC.Sources, chain, m.cfg.Frequency)
			m.effCfg = m.cfg
			m.effCfg.Environment = counter.ApplyEnvironment(m.cfg.Environment, chain)
			m.effCfg.Jitter = counter.ApplyJitter(m.cfg.Jitter, chain)
			m.effLaw = ch.Law()
		}
	}
	return m.effMC, m.effCfg, m.effLaw, m.effErr
}

// Measure runs the complete pipeline for one event pair: kernel
// construction (with loop-count calibration), the chain's program
// countermeasures (seeded from rng — drawn only when the chain rewrites
// the program, so countermeasure-free measurements consume exactly the
// pre-countermeasure rng stream), and then MeasureKernel. The rng
// drives every stochastic stage, so a fixed seed reproduces the
// measurement exactly.
func (m *Measurer) Measure(a, b Event, rng *rand.Rand) (Measurement, error) {
	k, err := m.buildKernel(a, b)
	if err != nil {
		return Measurement{}, err
	}
	if m.cfg.Countermeasures.HasProgram() {
		if rng == nil {
			return Measurement{}, fmt.Errorf("savat: nil rng")
		}
		if k, err = applyProgramCountermeasures(k, m.cfg.Countermeasures, rng.Int63()); err != nil {
			return Measurement{}, err
		}
	}
	return m.MeasureKernel(k, rng)
}

// buildKernel is BuildKernel on the Measurer's machine and frequency,
// timed as the calibrate stage.
func (m *Measurer) buildKernel(a, b Event) (*Kernel, error) {
	sp := mCalibrate.Start()
	defer sp.End()
	return BuildKernel(m.mc, a, b, m.cfg.Frequency)
}

// MeasureKernel measures a prebuilt kernel, avoiding re-calibration
// across repetitions. The per-stage seeds are drawn from rng, so a
// fixed rng state reproduces the measurement exactly — and both
// pipeline implementations derive the identical seeds from the
// identical rng, which is what the conformance differentials rely on.
func (m *Measurer) MeasureKernel(k *Kernel, rng *rand.Rand) (Measurement, error) {
	if rng == nil {
		return Measurement{}, fmt.Errorf("savat: nil rng")
	}
	return m.MeasureKernelSeeds(k, seedsFromRNG(rng))
}

// productKeys derives the synthesis-product cache keys for one
// measurement: the (mc, cfg)-fixed prefix — built once per Measurer —
// plus the stage seed. Two measurements share a key exactly when their
// products are bit-identical by construction: same seed, same
// synthesis parameters (nominal frequency, sample rate, capture
// length, resolved jitter, noise environment) and same segmentation
// parameters (RBW request, window). The instrument floor and the group
// coefficients are excluded — products are computed upstream of both.
// The keys are comparable structs around the interned prefix, so the
// steady-state measurement path allocates nothing here; map equality
// compares prefix content, so equal recipes hit across Measurers.
func (m *Measurer) productKeys(seeds SynthSeeds) (envKey, noiseKey productKey) {
	if m.envKeyPrefix == "" {
		// The prefixes describe the EFFECTIVE setup: a countermeasure
		// that changes the jitter or the noise environment must not hit
		// the products of the unprotected recipe. resolve has already run
		// on every path that reaches here.
		mc, cfg, _, _ := m.resolve()
		jit := cfg.Jitter
		if jit.AmpNoiseStd == 0 {
			jit.AmpNoiseStd = mc.AmplitudeNoiseStd
		}
		n := int(cfg.Duration * cfg.SampleRate)
		m.envKeyPrefix = fmt.Sprintf("env|f0=%g|fs=%g|n=%d|jit=%+v|rbw=%g|win=%v",
			cfg.Frequency, cfg.SampleRate, n, jit, cfg.Analyzer.RBW, cfg.Analyzer.Window)
		m.noiseKeyPrefix = fmt.Sprintf("noise|env=%+v|fs=%g|n=%d|rbw=%g|win=%v",
			cfg.Environment, cfg.SampleRate, n, cfg.Analyzer.RBW, cfg.Analyzer.Window)
	}
	return productKey{prefix: m.envKeyPrefix, seed: seeds.Env},
		productKey{prefix: m.noiseKeyPrefix, seed: seeds.Noise}
}

// MeasureKernelSeeds measures a prebuilt kernel from explicit per-stage
// seeds — the campaign entry point, where CampaignSeeds' scoping makes
// row-mates share envelope products and repetition-mates share noise
// products through the synthesis cache. The selected pipeline runs
// inside the savat.measure span.
func (m *Measurer) MeasureKernelSeeds(k *Kernel, seeds SynthSeeds) (Measurement, error) {
	sp := mMeasure.Start()
	defer sp.End()
	mc, cfg, law, err := m.resolve()
	if err != nil {
		return Measurement{}, err
	}
	if m.reference {
		return measureKernelReference(mc, k, cfg, law, seeds, m.trace)
	}
	envKey, noiseKey := m.productKeys(seeds)
	return m.scratch.measure(mc, k, cfg, law, seeds, envKey, noiseKey, m.trace)
}

// MeasurePair measures one event pair `repeats` times with the
// campaign's deterministic per-repetition seeding, returning the
// per-repetition SAVAT values and their summary. Values agree exactly
// with the corresponding campaign cells for the same seed.
func (m *Measurer) MeasurePair(a, b Event, repeats int, seed int64) ([]float64, stats.Summary, error) {
	if repeats <= 0 {
		return nil, stats.Summary{}, fmt.Errorf("%w: %d", ErrBadRepeats, repeats)
	}
	k, err := m.buildKernel(a, b)
	if err != nil {
		return nil, stats.Summary{}, err
	}
	if k, err = applyProgramCountermeasures(k, m.cfg.Countermeasures, CounterSeed(seed, a, b)); err != nil {
		return nil, stats.Summary{}, err
	}
	vals := make([]float64, repeats)
	for r := range vals {
		meas, err := m.MeasureKernelSeeds(k, CampaignSeeds(seed, a, r))
		if err != nil {
			return nil, stats.Summary{}, err
		}
		vals[r] = meas.SAVAT
	}
	return vals, stats.Summarize(vals), nil
}
