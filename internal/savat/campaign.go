package savat

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/arena"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Campaign is the science of one measurement campaign: everything that
// determines its cell values and nothing about how it is executed. The
// paper defines a SAVAT campaign by exactly these (Sections III–IV): the
// machine, the measurement setup, the event pairs, and the independent
// repetitions each cell is averaged over. CampaignSpec is its wire form,
// resolved by CampaignSpec.Campaign.
type Campaign struct {
	// Machine is the case-study system's configuration.
	Machine machine.Config
	// Config is the measurement setup (distance, frequency, band,
	// capture, environment, analyzer, channel, countermeasures).
	Config Config
	// Events to measure pairwise, in matrix order; nil means the paper's
	// 11 Figure 5 events.
	Events []Event
	// Repeats is the number of independent measurements per cell
	// (paper: 10, over multiple days).
	Repeats int
	// Seed feeds the deterministic per-cell, per-repetition rngs.
	Seed int64
}

// Validate reports the first problem with the campaign: the machine,
// then the (normalized) measurement configuration, then the events,
// then the repeats. Run calls it before the engine starts.
func (c Campaign) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if err := c.Config.Normalized().Validate(); err != nil {
		return err
	}
	for _, e := range c.Events {
		if !e.Valid() {
			return fmt.Errorf("savat: campaign event %d invalid", uint8(e))
		}
	}
	if c.Repeats <= 0 {
		return fmt.Errorf("%w: %d", ErrBadRepeats, c.Repeats)
	}
	return nil
}

// grid returns the campaign's events, defaulting to the paper's 11.
func (c Campaign) grid() []Event {
	if len(c.Events) == 0 {
		return Events()
	}
	return c.Events
}

// CampaignOptions are the runtime resources a campaign runs on. None of
// them influences a cell value; sharing one across campaigns shares its
// caches.
type CampaignOptions struct {
	// Parallelism bounds concurrent cell measurements (0 = GOMAXPROCS).
	Parallelism int

	// Monitor, when non-nil, receives one engine.ProgressEvent per
	// finished (pair, repetition) cell — cache-served cells included —
	// in completion order, so Stats.Done rises by one per event. Run
	// closes the channel when it returns, on every path, so pass a fresh
	// channel per campaign and drain it until it closes. Event Row/Col
	// index into the campaign's events.
	Monitor chan<- engine.ProgressEvent

	// Cache memoizes per-cell results across campaigns. Cells are keyed
	// by (machine config, measurement config, event pair, seed,
	// repetition) — event identity, not matrix position — so campaigns
	// over different event subsets or orders share work, as do repeated
	// figures in a distance sweep. Nil uses a fresh in-memory cache. A
	// cache over a durable store makes the campaign resumable: rerunning
	// it against the same store serves every finished cell as a hit.
	Cache *engine.Cache
	// Flight, when non-nil, deduplicates identical cells in flight
	// across concurrent campaigns sharing it (and sharing Cache): each
	// distinct cell is computed once, the others wait for that result.
	// Used by the campaign service so overlapping submissions never
	// duplicate work; nil disables it.
	Flight *engine.Flight
}

// Run measures the full pairwise SAVAT matrix of campaign c on the
// campaign engine, with rt supplying the runtime resources: a worker
// pool fans out the (pair, repetition) cells, a content-addressed cache
// (durable when rt.Cache has a store) makes the campaign resumable, and
// a failing cell stops the campaign with its error. The campaign is
// validated first; rt.Monitor is closed when Run returns, whatever the
// outcome.
//
// Every (pair, repetition) gets its own rng seeded from the event
// identities — not matrix positions — so results are reproducible,
// independent of scheduling and of which other events the campaign
// includes, and exactly equal to MeasurePair for the same pair. The
// kernel (and its calibrated loop count) is built once per pair and
// reused across repetitions, as the paper's fixed binary was; fully
// cached pairs never build a kernel at all.
//
// Cancelling ctx stops new cells promptly, lets in-flight cells finish
// (and land in the cache), and returns the context's error.
func Run(ctx context.Context, c Campaign, rt CampaignOptions) (*MatrixStats, error) {
	// Normalizing first makes the legacy empty channel name and the
	// explicit "em" the same campaign: same validation, same fingerprint,
	// same cache cells.
	c.Config = c.Config.Normalized()
	if err := c.Validate(); err != nil {
		// The engine closes the Monitor when its run ends; a campaign
		// rejected here never reaches it.
		if rt.Monitor != nil {
			close(rt.Monitor)
		}
		return nil, err
	}
	mc, cfg := c.Machine, c.Config
	events := c.grid()
	n := len(events)

	// The campaign's shared synthesis-product cache. The engine
	// enumerates repetitions innermost, so the live working set is one
	// envelope-product entry plus one noise entry per repetition; the
	// capacity covers it with headroom for scheduling skew.
	cache := NewSynthCache(2*c.Repeats + 2)

	// One kernel per pair, built lazily on first need and shared across
	// repetitions.
	kernels := make([]*Kernel, n*n)
	kernelErrs := make([]error, n*n)
	kernelOnce := make([]sync.Once, n*n)
	kernelFor := func(m *Measurer, i, j int) (*Kernel, error) {
		p := i*n + j
		kernelOnce[p].Do(func() {
			k, err := m.buildKernel(events[i], events[j])
			if err == nil {
				// The chain's program countermeasures rewrite the pair's
				// kernel once, deterministically (CounterSeed) — the
				// campaign's kernel, like the paper's fixed binary, is
				// shared across repetitions.
				k, err = applyProgramCountermeasures(k, cfg.Countermeasures,
					CounterSeed(c.Seed, events[i], events[j]))
			}
			kernels[p], kernelErrs[p] = k, err
		})
		return kernels[p], kernelErrs[p]
	}

	spec := engine.Spec{
		Rows: n, Cols: n, Reps: c.Repeats,
		Key: func(i, j, r int) string {
			return c.cellKey(events[i], events[j], r)
		},
		// Each engine worker owns one Measurer (and through it one
		// scratch), so steady-state cells reuse sample buffers, FFT
		// plans, and per-pair alternation results without locking, while
		// all workers share the campaign synthesis-product cache: a
		// matrix row's envelope products and a repetition's noise PSD are
		// computed once and reused by every row- and repetition-mate.
		// Neither scratch nor cache ever influences values: cells remain
		// exactly equal to Measurer.MeasurePair for the same seed. Each
		// worker also gets its own arena so steady-state cell compute
		// performs zero heap allocations (arenas are single-owner —
		// never shared across workers).
		NewWorkerState: func() any {
			return NewMeasurer(mc, cfg, WithSynthCache(cache), WithArena(arena.New()))
		},
		Compute: func(_ context.Context, state any, i, j, r int) (float64, error) {
			meas := state.(*Measurer)
			k, err := kernelFor(meas, i, j)
			if err != nil {
				return 0, fmt.Errorf("savat: cell %v/%v: %w", events[i], events[j], err)
			}
			m, err := meas.MeasureKernelSeeds(k, CampaignSeeds(c.Seed, events[i], r))
			if err != nil {
				return 0, fmt.Errorf("savat: cell %v/%v rep %d: %w", events[i], events[j], r, err)
			}
			return m.SAVAT, nil
		},
	}

	res, err := engine.Run(ctx, spec, engine.Options{
		Parallelism: rt.Parallelism,
		Cache:       rt.Cache,
		Flight:      rt.Flight,
		Monitor:     rt.Monitor,
	})
	if err != nil {
		return nil, err
	}

	out := &MatrixStats{
		Machine:  mc.Name,
		Distance: cfg.Distance,
		Mean:     NewMatrix(events),
		Engine:   res.Stats,
	}
	out.Cells = make([][]stats.Summary, n)
	for i := range out.Cells {
		out.Cells[i] = make([]stats.Summary, n)
		for j := range out.Cells[i] {
			s := stats.Summarize(res.Values[i][j])
			out.Cells[i][j] = s
			out.Mean.Vals[i][j] = s.Mean
		}
	}
	return out, nil
}

// fingerprint canonically identifies the campaign: every parameter
// that determines its cell values, hashed. It backs
// CampaignSpec.Fingerprint, the wire identity of a service job. v3: the
// measurement configuration carries the channel and countermeasure
// dimensions (normalized, so the legacy empty channel and "em"
// fingerprint equal), and v2 entries describe channel-unaware values.
func (c Campaign) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "savat-campaign/v3|machine=%+v|measure=%+v|seed=%d|repeats=%d|events=",
		c.Machine, c.Config.Normalized(), c.Seed, c.Repeats)
	for _, e := range c.grid() {
		b.WriteString(e.String())
		b.WriteByte(',')
	}
	return engine.Key(b.String())
}

// cellKey is the key material identifying one cell's result for the
// engine cache: the full machine and measurement configurations, the
// event pair (by identity, so matrix position and campaign composition
// don't matter), the base seed, and the repetition index. v3: the
// measurement configuration carries the channel and countermeasure
// dimensions (normalized, so a cell measured through the legacy empty
// channel name and through an explicit "em" is one cache entry); v2
// entries predate the dimension and no longer describe the same key
// space.
func (c Campaign) cellKey(a, b Event, rep int) string {
	return fmt.Sprintf("savat-cell/v3|machine=%+v|measure=%+v|pair=%v/%v|seed=%d|rep=%d",
		c.Machine, c.Config.Normalized(), a, b, c.Seed, rep)
}
