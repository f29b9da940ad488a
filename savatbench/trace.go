package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/activity"
	"repro/internal/counter"
	"repro/internal/emsim"
	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/savat"
	"repro/internal/specan"
	"repro/internal/stats"
)

// stageTimes accumulates the outside stage decomposition of one pass.
type stageTimes struct {
	calibrate, simulate, radiate, envProducts, noiseProducts, render, bandpower time.Duration

	simCycles float64 // Σ MeanCycles×Occurrences over the simulated phases
	bins      int     // rendered bins, summed over cells
	cells     int
}

// timed adds the duration of f to *acc.
func timed(acc *time.Duration, f func() error) error {
	t := time.Now()
	err := f()
	*acc += time.Since(t)
	return err
}

// replaySpec recomputes every cell of a campaign through the layers'
// public calls, timing each stage, in the campaign's order and reuse
// pattern: one kernel (calibration plus alternation) per pair,
// envelope products once per (row, repetition), noise products once
// per repetition, and radiate, render and band power per cell. Each
// pair's summary must equal the campaign's cell bit for bit; a
// mismatch is a failed check.
func replaySpec(spec savat.CampaignSpec, want [][]stats.Summary, st *stageTimes, t *tally) error {
	spec = spec.Normalized()
	mc, err := spec.MachineConfig()
	if err != nil {
		return err
	}
	cfg := spec.Config
	chain := cfg.Countermeasures
	if chain.HasProgram() {
		return fmt.Errorf("replay: program countermeasures are not replayed")
	}
	// The effective setup, as the Measurer resolves it: the channel's
	// source rewrite and distance law, then the chain's model-side
	// effects.
	ch, err := machine.ChannelByName(cfg.Channel)
	if err != nil {
		return err
	}
	eff := ch.Apply(mc)
	eff.Sources = counter.ApplySources(eff.Sources, chain, cfg.Frequency)
	env := counter.ApplyEnvironment(cfg.Environment, chain)
	jit := counter.ApplyJitter(cfg.Jitter, chain)
	if jit.AmpNoiseStd == 0 {
		jit.AmpNoiseStd = eff.AmplitudeNoiseStd
	}
	law := ch.Law()

	an, err := specan.New(cfg.Analyzer)
	if err != nil {
		return err
	}
	scratch := specan.NewScratch()
	fs := cfg.SampleRate
	n := int(cfg.Duration * fs)
	canon := emsim.CanonicalTimeline(cfg.Frequency)
	events := spec.GridEvents()
	noiseByRep := make([][]float64, spec.Repeats)

	for i, a := range events {
		envByRep := make([]*specan.PairPSD, spec.Repeats)
		for j, b := range events {
			var k *savat.Kernel
			if err := timed(&st.calibrate, func() (err error) {
				k, err = savat.BuildKernel(mc, a, b, cfg.Frequency)
				return err
			}); err != nil {
				return err
			}
			var alt *savat.AlternationResult
			if err := timed(&st.simulate, func() (err error) {
				alt, err = k.Alternation(eff, cfg.WarmupPeriods, cfg.MeasurePeriods)
				return err
			}); err != nil {
				return err
			}
			for _, ps := range alt.PhaseStats {
				st.simCycles += ps.MeanCycles * float64(ps.Occurrences)
			}

			vals := make([]float64, spec.Repeats)
			for r := range vals {
				seeds := savat.CampaignSeeds(spec.Seed, a, r)
				var coeffs [][2]complex128
				if err := timed(&st.radiate, func() error {
					var rad emsim.Radiator
					if err := rad.InitLaw(eff.Sources, cfg.Distance, eff.AsymmetrySourceAmp, law, rand.New(rand.NewSource(seeds.Cal))); err != nil {
						return err
					}
					actual := emsim.Alternation{
						Rates:       [2]activity.Vector{alt.PhaseStats[0].MeanRates, alt.PhaseStats[1].MeanRates},
						HalfSeconds: alt.HalfSeconds,
					}
					amps, err := rad.PhaseAmplitudes(actual, fs)
					if err != nil {
						return err
					}
					duty := complex(emsim.DutyAmplitudeFactor(actual.Duty()), 0)
					for g := range amps {
						if amps[g][0] != 0 || amps[g][1] != 0 {
							coeffs = append(coeffs, [2]complex128{amps[g][0] * duty, amps[g][1] * duty})
						}
					}
					return nil
				}); err != nil {
					return err
				}
				if len(coeffs) > 0 && envByRep[r] == nil {
					if err := timed(&st.envProducts, func() error {
						es, err := emsim.NewEnvelopeStream(canon, fs, n, jit, rand.New(rand.NewSource(seeds.Env)))
						if err != nil {
							return err
						}
						envByRep[r], err = an.EnvelopeProductsStream(n, es, fs, scratch, nil)
						return err
					}); err != nil {
						return err
					}
				}
				if noiseByRep[r] == nil {
					if err := timed(&st.noiseProducts, func() error {
						ns, err := noise.NewStream(env, fs, n, rand.New(rand.NewSource(seeds.Noise)))
						if err != nil {
							return err
						}
						noiseByRep[r], err = an.NoiseProductsStream(n, ns, fs, scratch, nil)
						return err
					}); err != nil {
						return err
					}
				}
				var tr *specan.Trace
				if err := timed(&st.render, func() (err error) {
					tr, err = an.Render(n, coeffs, envByRep[r], noiseByRep[r], fs, scratch)
					return err
				}); err != nil {
					return err
				}
				st.bins += tr.Spectrum.Bins()
				var p float64
				if err := timed(&st.bandpower, func() (err error) {
					p, err = tr.BandPower(cfg.Frequency, cfg.BandHalfWidth)
					return err
				}); err != nil {
					return err
				}
				vals[r] = p / alt.PairsPerSecond()
				st.cells++
			}
			got := stats.Summarize(vals)
			t.check(got == want[i][j], "replay %s %s %v/%v: %+v, campaign %+v", spec.Machine, cfg.Channel, a, b, got, want[i][j])
		}
	}
	return nil
}

// perLayerMetrics fills the traced run's per-layer metrics: the stage
// decomposition of one replayed pass, the program's own counters
// averaged over the traced passes, and the tracing overhead. Every
// traced pass must have computed exactly the cells the replay did.
// The service timings that only service-store measures read 0 here;
// that workload fills them in.
func perLayerMetrics(rep *report, recs []passRecord, st *stageTimes, t *tally) {
	m := map[string]metric{}
	total := st.calibrate + st.simulate + st.radiate + st.envProducts + st.noiseProducts + st.render + st.bandpower
	stage := func(name string, d time.Duration) {
		m[name+"_s"] = metric{d.Seconds(), "s"}
		m[name+"_share"] = metric{d.Seconds() / total.Seconds(), "ratio"}
	}
	stage("savat.calibrate", st.calibrate)
	stage("cpu.simulate", st.simulate)
	stage("emsim.radiate", st.radiate)
	stage("specan.env_products", st.envProducts)
	stage("specan.noise_products", st.noiseProducts)
	stage("specan.render", st.render)
	stage("specan.bandpower", st.bandpower)
	m["cpu.sim_cycles_per_s"] = metric{st.simCycles / st.simulate.Seconds(), "1/s"}
	m["specan.render_bins"] = metric{float64(st.bins) / float64(max(st.cells, 1)), "count"}

	var traced, untraced []float64
	o := map[string]float64{}
	for _, r := range recs {
		if !r.Traced {
			untraced = append(untraced, r.PassS)
			continue
		}
		traced = append(traced, r.PassS)
		t.check(r.Obs["engine.cells.computed"] == float64(st.cells), "traced pass computed %g cells, the replay %d",
			r.Obs["engine.cells.computed"], st.cells)
		for k, v := range r.Obs {
			o[k] += v
		}
	}
	for k := range o {
		o[k] /= float64(len(traced))
	}
	ratio := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	m["savat.altcache_misses"] = metric{o["savat.altcache.misses"], "count"}
	m["savat.altcache_hit_ratio"] = metric{ratio(o["savat.altcache.hits"], o["savat.altcache.misses"]), "ratio"}
	m["savat.synthcache_hit_ratio"] = metric{ratio(o["savat.synthcache.hits"], o["savat.synthcache.misses"]), "ratio"}
	m["emsim.samples"] = metric{o["emsim.samples"], "count"}
	m["noise.samples"] = metric{o["noise.samples"], "count"}
	m["dsp.fft_segments"] = metric{o["dsp.fft.segments"], "count"}
	m["dsp.fft_segment_s"] = metric{o["dsp.fft.segment.sum_s"], "s"}
	m["engine.cells_computed"] = metric{o["engine.cells.computed"], "count"}
	m["engine.cells_cached"] = metric{o["engine.cells.cached"], "count"}
	m["engine.cells_deduped"] = metric{o["engine.cells.deduped"], "count"}
	m["engine.cells_restored"] = metric{o["engine.cells.restored"], "count"}
	m["engine.checkpoint_saves"] = metric{o["engine.checkpoint.saves"], "count"}
	m["store.puts"] = metric{o["store.puts"], "count"}
	// Each flush batch is one write and one fsync (store.go's flush).
	perPut := 0.0
	if o["store.puts"] > 0 {
		perPut = 2 * o["store.flush.batches"] / o["store.puts"]
	}
	m["store.syscalls_per_put"] = metric{perPut, "count"}
	m["store.append_bytes"] = metric{o["store.append.bytes"], "bytes"}
	m["store.flush_s"] = metric{o["store.flush.sum_s"], "s"}
	m["engine.checkpoint_save_s"] = metric{o["engine.checkpoint.save.sum_s"], "s"}
	for _, name := range []string{"store.open_s", "service.submit_s", "service.queue_s", "service.run_s"} {
		m[name] = metric{0, "s"}
	}
	m["trace.pass_s"] = metric{median(traced), "s"}
	m["trace.overhead_s"] = metric{median(traced) - median(untraced), "s"}
	rep.PerLayer = m
	rep.Samples["traced_passes"] = len(traced)
	rep.Samples["replayed_cells"] = st.cells
}
