// Package cliconf centralizes the measurement-setup flags shared by the
// CLI tools — machine, antenna distance, alternation frequency, campaign
// repeats, seed, and the fast (quarter-second capture) mode — and
// resolves them into the one campaign description every surface shares,
// savat.CampaignSpec. Validation is a single savat-side call on that
// spec, so the CLI rejects exactly what the campaign runner and the
// campaign service reject, with the same sentinel error identities.
package cliconf

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/counter"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/savat"
	"repro/internal/store"
)

// Sentinel validation errors; test with errors.Is. The setup sentinels
// are aliases of the savat package's — flag validation delegates to
// savat.Validate, so a bad -distance fails with the same identity at
// the CLI, the campaign runner, and the measurement pipeline.
var (
	// ErrUnknownMachine reports a -machine that is not a case-study system.
	ErrUnknownMachine = savat.ErrUnknownMachine
	// ErrBadDistance reports a non-positive -distance.
	ErrBadDistance = savat.ErrBadDistance
	// ErrBadFrequency reports a non-positive -freq.
	ErrBadFrequency = savat.ErrBadFrequency
	// ErrBadRepeats reports a -repeats below one.
	ErrBadRepeats = savat.ErrBadRepeats
	// ErrUnknownChannel reports a -channel that is not a registered side
	// channel.
	ErrUnknownChannel = savat.ErrUnknownChannel
	// ErrBadCountermeasure reports an invalid -countermeasure entry that
	// survived flag parsing (e.g. from a spec file).
	ErrBadCountermeasure = savat.ErrBadCountermeasure
)

// Set selects which of the shared flags a command registers.
type Set uint

const (
	// Machine registers -machine (case-study system name).
	Machine Set = 1 << iota
	// Distance registers -distance (antenna distance in metres).
	Distance
	// Frequency registers -freq (intended alternation frequency in Hz).
	Frequency
	// Repeats registers -repeats (measurement campaigns per cell).
	Repeats
	// Seed registers -seed (base random seed).
	Seed
	// Fast registers -fast (quarter-second captures).
	Fast
	// Profile registers -cpuprofile and -memprofile (pprof output files).
	Profile
	// Metrics registers -metrics-addr (observability HTTP endpoint).
	Metrics
	// Channel registers -channel (measured side channel: em, power,
	// impedance). A non-em channel also swaps in the channel's canonical
	// noise environment — the emitted spec records it explicitly.
	Channel
	// Spec registers -spec (run the campaign a spec file describes,
	// overriding the setup flags) and -emit-spec (write the resolved
	// campaign spec instead of running it).
	Spec
	// CacheDir registers -cache-dir (persistent per-cell result cache,
	// kept in the batched segment-log store; rerunning a campaign with
	// the same -cache-dir resumes it).
	CacheDir
	// Countermeasure registers -countermeasure (repeatable name:param
	// countermeasure chain entries, e.g. noop-insert:0.1). Opt-in like
	// Spec: only commands that evaluate countermeasures register it.
	Countermeasure
	// All registers every shared measurement-setup flag. Spec, CacheDir,
	// and Countermeasure are opted into separately by the commands whose
	// unit of work is a campaign.
	All = Machine | Distance | Frequency | Repeats | Seed | Fast | Profile | Metrics | Channel
)

// Flags holds the parsed values of the shared measurement-setup flags.
// Fields whose flag was not registered keep their defaults and are not
// validated.
type Flags struct {
	Machine         string
	Distance        float64
	Frequency       float64
	Repeats         int
	Seed            int64
	Fast            bool
	CPUProfile      string
	MemProfile      string
	MetricsAddr     string
	Channel         string
	SpecPath        string
	EmitSpec        string
	CacheDir        string
	Countermeasures counter.Chain

	set Set
}

// Register adds the selected shared flags to fs with the paper's
// defaults (Core 2 Duo, 10 cm, 80 kHz, 10 repeats, seed 1) and returns
// the destination Flags.
func Register(fs *flag.FlagSet, which Set) *Flags {
	f := &Flags{
		Machine:   "Core2Duo",
		Distance:  0.10,
		Frequency: 80e3,
		Repeats:   10,
		Seed:      1,
		Channel:   "em",
		set:       which,
	}
	if which&Machine != 0 {
		fs.StringVar(&f.Machine, "machine", f.Machine, "system to simulate: Core2Duo, Pentium3M, TurionX2")
	}
	if which&Distance != 0 {
		fs.Float64Var(&f.Distance, "distance", f.Distance, "antenna distance in metres")
	}
	if which&Frequency != 0 {
		fs.Float64Var(&f.Frequency, "freq", f.Frequency, "intended alternation frequency in Hz")
	}
	if which&Repeats != 0 {
		fs.IntVar(&f.Repeats, "repeats", f.Repeats, "measurement campaigns per cell")
	}
	if which&Seed != 0 {
		fs.Int64Var(&f.Seed, "seed", f.Seed, "base random seed")
	}
	if which&Fast != 0 {
		fs.BoolVar(&f.Fast, "fast", f.Fast, "quarter-second captures (≈4× faster, coarser RBW)")
	}
	if which&Profile != 0 {
		fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
		fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	}
	if which&Metrics != 0 {
		fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics and /progress on this address (e.g. localhost:9090); also enables the end-of-run summary")
	}
	if which&Channel != 0 {
		fs.StringVar(&f.Channel, "channel", f.Channel, "side channel to measure: em, impedance, power")
	}
	if which&Countermeasure != 0 {
		fs.Func("countermeasure", "apply a countermeasure, as name:param (repeatable; noop-insert:p, shuffle:w, noise-gen:psd, supply-filter:fc)", func(v string) error {
			s, err := counter.Parse(v)
			if err != nil {
				return err
			}
			f.Countermeasures = append(f.Countermeasures, s)
			return nil
		})
	}
	if which&Spec != 0 {
		fs.StringVar(&f.SpecPath, "spec", "", "run the campaign this JSON spec file describes (overrides the setup flags)")
		fs.StringVar(&f.EmitSpec, "emit-spec", "", "write the resolved campaign spec as JSON to this file ('-' = stdout) and exit")
	}
	if which&CacheDir != 0 {
		fs.StringVar(&f.CacheDir, "cache-dir", "", "persist per-cell results here and reuse them across runs")
	}
	return f
}

// OpenCache opens the per-cell result cache the registered cache flags
// describe and returns it with a closer that flushes and releases its
// durable layer; defer the closer so interrupted runs still persist
// their buffered cells. Without -cache-dir (or without the CacheDir
// flag set) the cache is in-memory only and the closer is a no-op.
// With -cache-dir the cells live in the append-only segment log of
// internal/store, so rerunning a campaign with the same -cache-dir
// resumes it.
func (f *Flags) OpenCache() (*engine.Cache, func(), error) {
	if f.set&CacheDir == 0 || f.CacheDir == "" {
		return engine.NewCache(0, nil), func() {}, nil
	}
	st, err := store.Open(f.CacheDir, store.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("cliconf: -cache-dir: %w", err)
	}
	cache := engine.NewCache(0, st)
	return cache, func() {
		if err := cache.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "cliconf: closing cache:", err)
		}
	}, nil
}

// StartProfiles starts the profiling the -cpuprofile and -memprofile
// flags request and returns a stop function that must run exactly once
// before the process exits (defer it right after the call). With
// neither flag set both the start and the stop are no-ops, so commands
// can call it unconditionally:
//
//	stopProf, err := cf.StartProfiles()
//	if err != nil { return err }
//	defer stopProf()
//
// The stop function stops the CPU profile and then, if requested,
// writes the heap profile after a final GC so it reflects live objects
// rather than garbage. Errors writing the heap profile are reported on
// stderr (stop runs in defers, where a return value would be lost).
func (f *Flags) StartProfiles() (stop func(), err error) {
	var cpuOut *os.File
	if f.CPUProfile != "" {
		cpuOut, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cliconf: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuOut); err != nil {
			cpuOut.Close()
			return nil, fmt.Errorf("cliconf: -cpuprofile: %w", err)
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuOut != nil {
			pprof.StopCPUProfile()
			if err := cpuOut.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cliconf: -cpuprofile:", err)
			}
		}
		if f.MemProfile != "" {
			out, err := os.Create(f.MemProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cliconf: -memprofile:", err)
				return
			}
			defer out.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(out); err != nil {
				fmt.Fprintln(os.Stderr, "cliconf: -memprofile:", err)
			}
		}
	}, nil
}

// Validate reports the first problem among the registered flags as a
// wrapped sentinel error. It is one savat.CampaignSpec.Validate call on
// the spec the registered flags imply, so the CLI rejects exactly what
// the campaign runner and the campaign service would reject, with the
// same error identities (machine first, then the measurement
// configuration in field order, then repeats). Unregistered fields keep
// their (valid) defaults and so can never fail.
func (f *Flags) Validate() error {
	return f.impliedSpec().Validate()
}

// impliedConfig is the measurement setup the registered flags imply:
// the default (or, with -fast, the quarter-second) config with the
// registered distance and frequency applied. Unregistered fields keep
// the defaults even if the struct fields were clobbered.
func (f *Flags) impliedConfig() savat.Config {
	cfg := savat.DefaultConfig()
	if f.set&Fast != 0 && f.Fast {
		cfg = savat.FastConfig()
	}
	if f.set&Distance != 0 {
		cfg.Distance = f.Distance
	}
	if f.set&Frequency != 0 {
		cfg.Frequency = f.Frequency
	}
	if f.set&Channel != 0 {
		cfg.Channel = f.Channel
		// A non-em channel brings its own instrument, so the channel's
		// canonical noise environment replaces the EM lab default. The
		// swap is recorded in the spec explicitly (specs carry the
		// environment verbatim) rather than resolved at measurement time.
		if ch, err := machine.ChannelByName(f.Channel); err == nil && ch.Name() != "em" {
			cfg.Environment = ch.Environment()
		}
	}
	if f.set&Countermeasure != 0 && len(f.Countermeasures) > 0 {
		cfg.Countermeasures = append(counter.Chain(nil), f.Countermeasures...)
	}
	return cfg
}

// impliedSpec is the campaign the registered flags describe:
// DefaultCampaignSpec with the registered machine, setup, repeats, and
// seed applied. Unregistered fields keep the paper defaults even if the
// struct fields were clobbered.
func (f *Flags) impliedSpec() savat.CampaignSpec {
	spec := savat.DefaultCampaignSpec()
	if f.set&Machine != 0 {
		spec.Machine = f.Machine
	}
	spec.Config = f.impliedConfig()
	if f.set&Repeats != 0 {
		spec.Repeats = f.Repeats
	}
	if f.set&Seed != 0 {
		spec.Seed = f.Seed
	}
	return spec
}

// CampaignSpec resolves the campaign this invocation describes: the
// -spec file when one was given (already validated by
// savat.LoadCampaignSpec), otherwise the validated spec the registered
// flags imply. This is the single source of truth the commands hand to
// savat.RunSpecContext or POST to the campaign service.
func (f *Flags) CampaignSpec() (savat.CampaignSpec, error) {
	if f.set&Spec != 0 && f.SpecPath != "" {
		return savat.LoadCampaignSpec(f.SpecPath)
	}
	spec := f.impliedSpec()
	if err := spec.Validate(); err != nil {
		return savat.CampaignSpec{}, err
	}
	return spec, nil
}

// WriteEmittedSpec honors -emit-spec: when the flag was registered and
// set, it writes the resolved campaign spec as canonical JSON to the
// requested destination ("-" = stdout) and returns true, telling the
// command to exit instead of running the campaign.
func (f *Flags) WriteEmittedSpec() (emitted bool, err error) {
	if f.set&Spec == 0 || f.EmitSpec == "" {
		return false, nil
	}
	spec, err := f.CampaignSpec()
	if err != nil {
		return false, err
	}
	data, err := spec.MarshalIndent()
	if err != nil {
		return false, err
	}
	if f.EmitSpec == "-" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(f.EmitSpec, data, 0o644)
	}
	if err != nil {
		return false, fmt.Errorf("cliconf: -emit-spec: %w", err)
	}
	return true, nil
}

// MachineConfig validates the flags and returns the selected case-study
// system.
func (f *Flags) MachineConfig() (machine.Config, error) {
	spec, err := f.CampaignSpec()
	if err != nil {
		return machine.Config{}, err
	}
	return spec.MachineConfig()
}

// MeasureConfig validates the flags and returns the measurement setup
// they imply: the default (or, with -fast, the quarter-second) config
// with the registered distance and frequency applied, or the -spec
// file's configuration when one was given.
func (f *Flags) MeasureConfig() (savat.Config, error) {
	spec, err := f.CampaignSpec()
	if err != nil {
		return savat.Config{}, err
	}
	return spec.Config, nil
}

// StartObs starts the observability side channel the -metrics-addr flag
// requests and returns a stop function that must run once before the
// process exits (defer it right after the call, like StartProfiles).
// With the flag unset both calls are no-ops and the measurement
// pipeline's metric sites stay at their disabled cost of one atomic
// load each.
//
// When the flag is set, StartObs enables the default obs registry and
// serves /metrics, /progress, and /debug/vars on the address; progress
// (which may be nil) supplies the live value behind /progress and
// should read a cached value, not compute. The stop function shuts the
// server down and writes the end-of-run summary table to stderr.
func (f *Flags) StartObs(progress func() any) (stop func(), err error) {
	if f.set&Metrics == 0 || f.MetricsAddr == "" {
		return func() {}, nil
	}
	srv, err := obs.Serve(f.MetricsAddr, obs.Default, progress)
	if err != nil {
		return nil, fmt.Errorf("cliconf: -metrics-addr: %w", err)
	}
	fmt.Fprintf(os.Stderr, "obs: serving /metrics and /progress on http://%s\n", srv.Addr())
	done := false
	return func() {
		if done {
			return
		}
		done = true
		srv.Close()
		WriteObsSummary(os.Stderr)
	}, nil
}

// WriteObsSummary writes the default registry's end-of-run summary
// table to w. It is a no-op while the registry is disabled (nothing was
// recorded), so commands can call it unconditionally.
func WriteObsSummary(w io.Writer) {
	if !obs.Default.Enabled() {
		return
	}
	obs.WriteSummary(w, obs.Default.Snapshot())
}
