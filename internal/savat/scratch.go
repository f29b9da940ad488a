package savat

import (
	"math/rand"

	"repro/internal/activity"
	"repro/internal/arena"
	"repro/internal/emsim"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/noise"
	"repro/internal/specan"
)

// seededRand is a reseedable rng: one source allocated on first use,
// re-seeded per measurement stage so the steady-state path allocates no
// rng state.
type seededRand struct {
	src rand.Source
	rng *rand.Rand
}

func (s *seededRand) at(seed int64) *rand.Rand {
	if s.rng == nil {
		s.src = rand.NewSource(seed)
		s.rng = rand.New(s.src)
	} else {
		s.src.Seed(seed)
	}
	return s.rng
}

// measureScratch holds every reusable piece of one Measurer's
// streaming pipeline: the envelope and noise stream sources, the
// spectrum analyzer and its working set, the radiator value, the
// per-stage rngs, a cache of cycle-accurate alternation results (the
// simulation is rng-free, so one result serves every repetition of a
// pair), and the synthesis-product cache that lets cells sharing a
// stochastic realization skip synthesis and Welch analysis entirely.
// The Measurer's effective machine and configuration are fixed, so
// every buffer is sized on the first measurement and reused unchanged
// by every later one; a warmed scratch allocates no sample-sized
// buffers at all.
//
// A measureScratch is NOT safe for concurrent use; the campaign engine
// gives each worker its own Measurer (the workers then share one
// concurrency-safe SynthCache — see Run).
type measureScratch struct {
	coeffs [][2]complex128
	rad    emsim.Radiator
	specan *specan.Scratch
	alts   map[*Kernel]*AlternationResult
	hier   *memhier.Hierarchy
	cache  *SynthCache

	// Per-stage rngs, reseeded from the measurement's SynthSeeds.
	calRng, envRng, noiseRng seededRand

	// Streaming sources, re-initialized per measurement.
	envStream   emsim.EnvelopeStream
	noiseStream noise.Stream

	analyzer *specan.Analyzer
}

// newMeasureScratch returns an empty scratch whose products are read
// through cache (a private single-owner cache when nil) and whose
// working buffers are carved from mem (the heap when nil). Buffers are
// sized on first use.
func newMeasureScratch(cache *SynthCache, mem *arena.Arena) *measureScratch {
	sp := specan.NewScratch()
	sp.Mem = mem
	if cache == nil {
		cache = newPrivateSynthCache()
	}
	return &measureScratch{specan: sp, alts: make(map[*Kernel]*AlternationResult), cache: cache}
}

// alternation returns the cached steady-state alternation of k on the
// Measurer's machine and period counts — both fixed, so the kernel (by
// identity: campaigns build one kernel per pair and share it across
// repetitions) is the whole key — simulating it on first need.
// Alternation is deterministic — it consumes no rng — so caching cannot
// change any measured value.
func (s *measureScratch) alternation(mc machine.Config, k *Kernel, cfg Config) (*AlternationResult, error) {
	if alt, ok := s.alts[k]; ok {
		mAltHits.Inc()
		return alt, nil
	}
	mAltMisses.Inc()
	if s.hier == nil {
		hier, err := memhier.New(mc.Mem)
		if err != nil {
			return nil, err
		}
		s.hier = hier
	}
	alt, err := k.alternationHier(mc, cfg.WarmupPeriods, cfg.MeasurePeriods, s.hier)
	if err != nil {
		return nil, err
	}
	s.alts[k] = alt
	return alt, nil
}

// prepare runs the shared front half of a measurement — validation,
// the cached cycle-accurate alternation, radiator calibration (on the
// Cal seed), and the duty-scaled group-coefficient filter (left in
// s.coeffs) — and builds the analyzer on first use.
//
// The returned canon timeline is the canonical 50/50 alternation at the
// nominal frequency — the one every cell of a campaign row synthesizes
// its envelopes on. The pair's actual duty cycle d is restored in the
// coefficients: a duty-d alternation's fundamental is sin(πd)/sin(π/2)
// times the 50/50 one's, so both phase amplitudes of every group are
// scaled by emsim.DutyAmplitudeFactor(d), which preserves the measured
// fundamental-band power while keeping the envelope realization — and
// therefore its cached spectral products — pair-independent. Droop
// compensation stays on the pair's achieved period via PhaseAmplitudes.
func (s *measureScratch) prepare(mc machine.Config, k *Kernel, cfg Config, law emsim.DistanceLaw, seeds SynthSeeds) (alt *AlternationResult, canon emsim.Alternation, n int, jit emsim.Jitter, err error) {
	if err = cfg.Validate(); err != nil {
		return nil, canon, 0, jit, err
	}

	// 1. Cycle-accurate steady-state activity of the alternation loop.
	altSp := mAlternation.Start()
	alt, err = s.alternation(mc, k, cfg)
	altSp.End()
	if err != nil {
		return nil, canon, 0, jit, err
	}

	// 2. Radiate: per-component coupling at the measurement distance with
	// repetition-specific spatial phases (one antenna placement per
	// campaign repetition). Only the two shared envelope streams are ever
	// rendered; each group is carried as its pair of complex phase
	// amplitudes.
	radSp := mRadiate.Start()
	defer radSp.End()
	if err = s.rad.InitLaw(mc.Sources, cfg.Distance, mc.AsymmetrySourceAmp, law, s.calRng.at(seeds.Cal)); err != nil {
		return nil, canon, 0, jit, err
	}
	actual := emsim.Alternation{
		Rates:       [2]activity.Vector{alt.PhaseStats[0].MeanRates, alt.PhaseStats[1].MeanRates},
		HalfSeconds: alt.HalfSeconds,
	}
	n = int(cfg.Duration * cfg.SampleRate)
	jit = cfg.Jitter
	if jit.AmpNoiseStd == 0 {
		jit.AmpNoiseStd = mc.AmplitudeNoiseStd
	}
	amps, err := s.rad.PhaseAmplitudes(actual, cfg.SampleRate)
	if err != nil {
		return nil, canon, 0, jit, err
	}
	duty := complex(emsim.DutyAmplitudeFactor(actual.Duty()), 0)
	coeffs := s.coeffs[:0]
	for g := 0; g < emsim.NumGroups; g++ {
		if amps[g][0] != 0 || amps[g][1] != 0 {
			coeffs = append(coeffs, [2]complex128{amps[g][0] * duty, amps[g][1] * duty})
		}
	}
	s.coeffs = coeffs
	canon = emsim.CanonicalTimeline(cfg.Frequency)

	if s.analyzer == nil {
		if s.analyzer, err = specan.New(cfg.Analyzer); err != nil {
			return nil, canon, 0, jit, err
		}
	}
	return alt, canon, n, jit, nil
}

// finish turns the band power around the intended frequency into the
// Measurement: energy per A/B instruction pair. tr is the caller-owned
// trace of a WithTrace Measurer, nil otherwise.
func finish(k *Kernel, alt *AlternationResult, p float64, tr *specan.Trace) Measurement {
	pairs := alt.PairsPerSecond()
	return Measurement{
		A: k.A, B: k.B,
		SAVAT:           p / pairs,
		BandPower:       p,
		PairsPerSecond:  pairs,
		LoopCount:       k.LoopCount,
		ActualFrequency: alt.ActualFrequency(),
		Trace:           tr,
	}
}

// render is the last stage of the streaming path: the band power from
// the products — over the band's display bins only, unless the caller
// asked for a trace, which is then rendered in full into fresh,
// caller-owned memory (Render on a nil scratch) and read with
// Trace.BandPower. The two routes are bit-identical.
func (s *measureScratch) render(n int, cfg Config, env *specan.PairPSD, noisePSD []float64, trace bool) (float64, *specan.Trace, error) {
	sp := mRender.Start()
	defer sp.End()
	if !trace {
		p, err := s.analyzer.BandPower(n, s.coeffs, env, noisePSD, cfg.SampleRate, cfg.Frequency, cfg.BandHalfWidth, s.specan)
		return p, nil, err
	}
	tr, err := s.analyzer.Render(n, s.coeffs, env, noisePSD, cfg.SampleRate, nil)
	if err != nil {
		return 0, nil, err
	}
	p, err := tr.BandPower(cfg.Frequency, cfg.BandHalfWidth)
	return p, tr, err
}

// measure is the streaming fast path behind the default Measurer: the
// envelope and noise spectral products are read through the
// synthesis-product cache — computed, on a miss, by the O(segment)
// streaming renderers (emsim.EnvelopeStream + noise.Stream feeding
// specan's product walks) into cache-owned buffers; skipped entirely on
// a hit — and the band power is assembled by the FFT-free
// specan.BandPower (or, with trace set, specan.Render into a fresh
// trace). The products are bit-identical to dsp's buffered Welch over
// the materialized captures (the specan, emsim and noise tests pin
// this), and the values match the reference pipeline within rounding
// (the equivalence tests bound the relative difference by 1e-9).
func (s *measureScratch) measure(mc machine.Config, k *Kernel, cfg Config, law emsim.DistanceLaw, seeds SynthSeeds, envKey, noiseKey productKey, trace bool) (Measurement, error) {
	alt, canon, n, jit, err := s.prepare(mc, k, cfg, law, seeds)
	if err != nil {
		return Measurement{}, err
	}
	cache := s.cache

	// 3+4. Synthesis and per-segment Welch analysis, fused and cached:
	// a miss streams the envelope pair (guarded exactly like
	// SynthesizeGroups' active check, so a fully silent kernel renders
	// no envelopes) and then the noise stream through the segment walks;
	// a hit reuses the published products untouched. Group signals and
	// noise are mutually incoherent: powers add, which is exactly what
	// the frequency-domain combination in Render computes.
	var env *specan.PairPSD
	if len(s.coeffs) > 0 {
		env, err = cache.envProducts(envKey, func(dst *specan.PairPSD) (*specan.PairPSD, error) {
			sp := mSynthesize.Start()
			defer sp.End()
			if err := s.envStream.Init(canon, cfg.SampleRate, n, jit, s.envRng.at(seeds.Env)); err != nil {
				return nil, err
			}
			return s.analyzer.EnvelopeProductsStream(n, &s.envStream, cfg.SampleRate, s.specan, dst)
		})
		if err != nil {
			return Measurement{}, err
		}
	}
	noisePSD, err := cache.noiseProducts(noiseKey, func(dst []float64) ([]float64, error) {
		sp := mSynthesize.Start()
		defer sp.End()
		if err := s.noiseStream.Init(cfg.Environment, cfg.SampleRate, n, s.noiseRng.at(seeds.Noise)); err != nil {
			return nil, err
		}
		return s.analyzer.NoiseProductsStream(n, &s.noiseStream, cfg.SampleRate, s.specan, dst)
	})
	if err != nil {
		return Measurement{}, err
	}

	p, tr, err := s.render(n, cfg, env, noisePSD, trace)
	if err != nil {
		return Measurement{}, err
	}
	return finish(k, alt, p, tr), nil
}
