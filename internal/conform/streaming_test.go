package conform

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/savat"
	"repro/internal/workpool"
)

// TestStreamingParallelCampaign runs a concurrent campaign whose
// workers fan per-segment transforms out on an explicit shared worker
// pool — engine workers and segment workers interleave freely — and
// checks the result against a sequential, inline-transform campaign.
// Exact equality is required: the FIFO segment reduction makes the
// parallel schedule invisible in the values. Run under -race (CI does)
// this doubles as the data-race check on the segment pool inside the
// campaign engine.
func TestStreamingParallelCampaign(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := savat.DefaultConfig()
	cfg.Duration = 1.0 / 16
	cfg.Analyzer.RBW = 50 // several Welch segments per capture
	events := []savat.Event{savat.ADD, savat.LDM, savat.DIV}

	parallel, err := savat.RunCampaign(mc, cfg, savat.CampaignOptions{
		Events: events, Repeats: 2, Seed: 5,
		Parallelism:  3,
		AnalyzerPool: workpool.New(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := savat.RunCampaign(mc, cfg, savat.CampaignOptions{
		Events: events, Repeats: 2, Seed: 5,
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range events {
		for _, b := range events {
			pv := parallel.Mean.MustAt(a, b)
			sv := sequential.Mean.MustAt(a, b)
			if pv != sv {
				t.Errorf("%v/%v: parallel campaign %g != sequential %g (must be bit-identical)", a, b, pv, sv)
			}
		}
	}
}
