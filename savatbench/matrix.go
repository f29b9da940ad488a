package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/paperdata"
	"repro/internal/savat"
	"repro/internal/stats"
)

// matrixCampaign is one in-process campaign of a matrix pass. Paper
// names the published experiment it reproduces ("" for none).
type matrixCampaign struct {
	name  string
	paper string
	spec  savat.CampaignSpec
}

// matrixCampaigns lists a matrix workload's campaigns, in pass order.
//
// paper-fig9 is the paper's own protocol: Core 2 Duo at 10 cm, the
// default 1 s capture at fs = 2^18, 11×11 events, 10 repeats.
//
// fast-sweep is six FastConfig campaigns of 3 repeats: the Core 2 Duo
// at 0.10, 0.50 and 1.00 m (Figures 9, 17, 18) and on the power channel
// at 0.10 m — four campaigns over the same 121 kernels — plus the
// Pentium III-M and Turion X2 at 0.10 m, which share no kernel with
// them.
func matrixCampaigns(workload string, seed int64) []matrixCampaign {
	if workload == "paper-fig9" {
		spec := savat.DefaultCampaignSpec()
		spec.Seed = seed
		return []matrixCampaign{{"core2duo-em-0.10", "fig9", spec}}
	}
	mk := func(name, paper, mach string, dist float64, channel string) matrixCampaign {
		cfg := savat.FastConfig()
		cfg.Distance = dist
		setChannel(&cfg, channel)
		return matrixCampaign{name, paper, savat.CampaignSpec{
			Version: savat.SpecVersion, Machine: mach, Config: cfg, Repeats: 3, Seed: seed,
		}}
	}
	return []matrixCampaign{
		mk("core2duo-em-0.10", "fig9", "Core2Duo", 0.10, "em"),
		mk("core2duo-em-0.50", "fig17", "Core2Duo", 0.50, "em"),
		mk("core2duo-em-1.00", "fig18", "Core2Duo", 1.00, "em"),
		mk("core2duo-power-0.10", "", "Core2Duo", 0.10, "power"),
		mk("pentium3m-em-0.10", "fig12", "Pentium3M", 0.10, "em"),
		mk("turionx2-em-0.10", "fig14", "TurionX2", 0.10, "em"),
	}
}

// matrixPass is the child side of a matrix pass: one untimed warm-up
// cell (the set-up), then every campaign of the workload, each from
// cold campaign caches, timed.
func matrixPass(o options, obsOn bool) (passRecord, error) {
	camps := matrixCampaigns(o.workload, o.seed)
	var rec passRecord
	t0 := time.Now()
	if err := warmCell(camps[0].spec); err != nil {
		return rec, fmt.Errorf("warm-up cell: %w", err)
	}
	rec.SetupS = time.Since(t0).Seconds()

	enableObs(obsOn)
	passStart := time.Now()
	for _, c := range camps {
		t := time.Now()
		res, err := savat.RunSpec(c.spec, savat.CampaignOptions{})
		if err != nil {
			return rec, fmt.Errorf("campaign %s: %w", c.name, err)
		}
		rec.Campaigns = append(rec.Campaigns, campaignRecord{
			Name: c.name, TimeS: time.Since(t).Seconds(), Cells: res.Cells,
		})
	}
	rec.PassS = time.Since(passStart).Seconds()
	return rec, nil
}

type matrixWorkload struct {
	o     options
	camps []matrixCampaign
}

func newMatrixWorkload(o options) *matrixWorkload {
	return &matrixWorkload{o: o, camps: matrixCampaigns(o.workload, o.seed)}
}

func (w *matrixWorkload) prepare() error { return nil }

func (w *matrixWorkload) childArgs() []string { return nil }

// refRelTol is the fast-vs-reference tolerance of the repository's
// equivalence tests.
const refRelTol = 1e-9

func (w *matrixWorkload) finish(recs []passRecord, rep *report, t *tally) error {
	cells := 0
	for _, c := range w.camps {
		n := len(c.spec.GridEvents())
		cells += n * n * c.spec.Repeats
	}
	rep.Host.JobsPass, rep.Host.CellsPass = len(w.camps), cells

	// Every cell finite and positive; every pass bit-identical to the
	// first (same seed, same inputs).
	for p, rec := range recs {
		if len(rec.Campaigns) != len(w.camps) {
			return fmt.Errorf("pass %d reported %d campaigns, want %d", p, len(rec.Campaigns), len(w.camps))
		}
		for ci, cr := range rec.Campaigns {
			checkCells(t, fmt.Sprintf("pass %d %s", p, cr.Name), cr.Cells, w.camps[ci].spec.Repeats)
			d, err := digestCells(cr.Cells)
			d0, err0 := digestCells(recs[0].Campaigns[ci].Cells)
			t.check(err == nil && err0 == nil && d == d0, "pass %d %s: digest differs from pass 0", p, cr.Name)
		}
	}
	first := recs[0].Campaigns

	// Accuracy against the reference pipeline, on seeded sampled cells.
	rng := rand.New(rand.NewSource(w.o.seed))
	worst := 0.0
	samples := 3
	if len(w.camps) > 1 {
		samples = 1
	}
	for ci, c := range w.camps {
		for s := 0; s < samples; s++ {
			rel, err := referenceCell(c.spec, first[ci].Cells, rng, t)
			if err != nil {
				return err
			}
			worst = math.Max(worst, rel)
		}
	}
	rep.EndToEnd["ref_rel_err"] = metric{worst, "ratio"}
	rep.Samples["ref_cells"] = samples * len(w.camps)

	if err := w.science(first, rep); err != nil {
		return err
	}
	if w.o.trace {
		var st stageTimes
		for ci, c := range w.camps {
			if err := replaySpec(c.spec, first[ci].Cells, &st, t); err != nil {
				return err
			}
		}
		perLayerMetrics(rep, recs, &st, t)
	}
	fillMatrixMetrics(recs, rep)
	return nil
}

// checkCells counts one check per cell: every repetition present and
// every value finite and positive.
func checkCells(t *tally, what string, cells [][]stats.Summary, repeats int) {
	for i, row := range cells {
		for j, s := range row {
			t.check(s.N == repeats && s.Min > 0 && !math.IsInf(s.Max, 0) && !math.IsNaN(s.Mean),
				"%s cell %d/%d: %+v not finite and positive", what, i, j, s)
		}
	}
}

// fillMatrixMetrics computes the end-to-end timings over the untraced
// passes. A job is one campaign: what a user of reproduce or savat
// waits for.
func fillMatrixMetrics(recs []passRecord, rep *report) {
	var setup, pass, rss, jobs []float64
	for _, r := range recs {
		setup = append(setup, r.SetupS)
		if r.Traced {
			continue
		}
		pass = append(pass, r.PassS)
		rss = append(rss, r.RSSMB)
		for _, c := range r.Campaigns {
			jobs = append(jobs, c.TimeS)
		}
	}
	rep.PassTimes = pass
	rep.EndToEnd["setup_s"] = metric{median(setup), "s"}
	rep.EndToEnd["pass_s"] = metric{median(pass), "s"}
	rep.EndToEnd["job_p50_s"] = metric{quantile(jobs, 0.5), "s"}
	rep.EndToEnd["job_p90_s"] = metric{quantile(jobs, 0.9), "s"}
	rep.EndToEnd["peak_rss_mb"] = metric{median(rss), "MB"}
	rep.Samples["passes"] = len(pass)
	rep.Samples["setups"] = len(setup)
	rep.Samples["jobs"] = len(jobs)
}

// referenceCell re-measures one seeded (pair, repetition) of a
// campaign with the reference pipeline and returns its relative
// deviation from the fast pipeline. It also re-measures the pair's
// every repetition on a fresh fast Measurer and checks that their
// summary equals the campaign's cell bit for bit, which ties the
// compared fast value to the campaign.
func referenceCell(spec savat.CampaignSpec, cells [][]stats.Summary, rng *rand.Rand, t *tally) (float64, error) {
	mc, err := spec.MachineConfig()
	if err != nil {
		return 0, err
	}
	ev := spec.GridEvents()
	i, j, r := rng.Intn(len(ev)), rng.Intn(len(ev)), rng.Intn(spec.Repeats)
	vals, _, err := savat.NewMeasurer(mc, spec.Config).MeasurePair(ev[i], ev[j], spec.Repeats, spec.Seed)
	if err != nil {
		return 0, err
	}
	t.check(stats.Summarize(vals) == cells[i][j], "%s %v/%v: fresh fast Measurer disagrees with the campaign cell", spec.Machine, ev[i], ev[j])
	k, err := savat.BuildKernel(mc, ev[i], ev[j], spec.Config.Frequency)
	if err != nil {
		return 0, err
	}
	ref, err := savat.NewMeasurer(mc, spec.Config, savat.WithReference()).MeasureKernelSeeds(k, savat.CampaignSeeds(spec.Seed, ev[i], r))
	if err != nil {
		return 0, err
	}
	rel := math.Abs(vals[r]-ref.SAVAT) / math.Abs(ref.SAVAT)
	t.check(rel <= refRelTol, "%s %v/%v rep %d: fast %g vs reference %g (rel %g)", spec.Machine, ev[i], ev[j], r, vals[r], ref.SAVAT, rel)
	return rel, nil
}

// science records the reproduction's science values, ungated:
// agreement with the published matrices and one fixed-pair sequence
// additivity ratio (Section III: LDM;DIV against ADD;ADD).
func (w *matrixWorkload) science(first []campaignRecord, rep *report) error {
	sci := map[string]any{}
	for ci, c := range w.camps {
		if c.paper == "" {
			continue
		}
		exp, err := paperdata.ByID(c.paper)
		if err != nil {
			return err
		}
		m := meanMatrix(c.spec.GridEvents(), first[ci].Cells)
		paper := exp.Matrix()
		rho, err := stats.SpearmanRank(m.Flat(), paper.Flat())
		if err != nil {
			return err
		}
		sci[c.name] = map[string]float64{
			"spearman":        rho,
			"cell_ratio":      cellRatio(m, paper),
			"diag_violations": float64(len(m.DiagonalViolations(0.20))),
		}
		if ci == 0 {
			rep.EndToEnd["spearman"] = metric{rho, "rho"}
		}
	}
	c := w.camps[0]
	mc, err := c.spec.MachineConfig()
	if err != nil {
		return err
	}
	meas, est, err := savat.SequenceAdditivity(mc, savat.Sequence{savat.LDM, savat.DIV}, savat.Sequence{savat.ADD, savat.ADD},
		c.spec.Config, rand.New(rand.NewSource(w.o.seed)))
	if err != nil {
		return err
	}
	sci["additivity"] = map[string]float64{"measured_zj": meas * 1e21, "estimate_zj": est * 1e21, "ratio": meas / est}
	rep.Science = sci
	return nil
}

func meanMatrix(events []savat.Event, cells [][]stats.Summary) *savat.Matrix {
	m := savat.NewMatrix(events)
	for i := range cells {
		for j := range cells[i] {
			m.Vals[i][j] = cells[i][j].Mean
		}
	}
	return m
}

// cellRatio is the geometric-mean factor between measured and published
// cells, as the repository's matrix benchmarks report it.
func cellRatio(m, paper *savat.Matrix) float64 {
	var logSum float64
	var n int
	for i := range m.Vals {
		for j := range m.Vals[i] {
			if m.Vals[i][j] > 0 && paper.Vals[i][j] > 0 {
				logSum += math.Abs(math.Log10(m.Vals[i][j] / paper.Vals[i][j]))
				n++
			}
		}
	}
	return math.Pow(10, logSum/float64(n))
}
