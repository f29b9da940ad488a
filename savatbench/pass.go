package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/savat"
	"repro/internal/stats"
)

// passRecord is what one pass child reports, as one JSON line.
type passRecord struct {
	Traced bool    `json:"traced"`
	SetupS float64 `json:"setup_s"`
	PassS  float64 `json:"pass_s"`
	RSSMB  float64 `json:"peak_rss_mb"`
	// StoreOpenS is service.New on the copied state directory (store
	// open and index replay); service-store only.
	StoreOpenS float64            `json:"store_open_s,omitempty"`
	Campaigns  []campaignRecord   `json:"campaigns,omitempty"`
	Jobs       []jobRecord        `json:"jobs,omitempty"`
	Obs        map[string]float64 `json:"obs,omitempty"`
}

// campaignRecord is one in-process campaign of a matrix pass.
type campaignRecord struct {
	Name  string            `json:"name"`
	TimeS float64           `json:"time_s"`
	Cells [][]stats.Summary `json:"cells"`
}

// jobRecord is one service job of a service-store pass, timed from the
// client side (submit, latency) and from the job's own timestamps
// (queue, run).
type jobRecord struct {
	Kind     string  `json:"kind"`
	Spec     int     `json:"spec"` // index into the run's spec table
	State    string  `json:"state"`
	Error    string  `json:"error,omitempty"`
	LatencyS float64 `json:"latency_s"`
	SubmitS  float64 `json:"submit_s"`
	QueueS   float64 `json:"queue_s"`
	RunS     float64 `json:"run_s"`
	Digest   string  `json:"digest"`
}

// runPass runs one pass in a fresh child process of this binary and
// decodes its record. A child that fails aborts the run: its stderr is
// passed through, and no result line is printed.
func runPass(o options, w workload, traced bool) (passRecord, error) {
	exe, err := os.Executable()
	if err != nil {
		return passRecord{}, err
	}
	args := []string{"-pass", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10), "-work", o.work}
	if traced {
		args = append(args, "-obs")
	}
	args = append(args, w.childArgs()...)
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return passRecord{}, fmt.Errorf("pass child: %w", err)
	}
	var rec passRecord
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		return passRecord{}, fmt.Errorf("pass child output: %w", err)
	}
	return rec, nil
}

// runPassChild is the child side: set up, run one timed pass, report.
func runPassChild(o options, obsOn bool, state string) error {
	var (
		rec passRecord
		err error
	)
	switch o.workload {
	case "paper-fig9", "fast-sweep":
		rec, err = matrixPass(o, obsOn)
	case "service-store":
		rec, err = servicePass(o, obsOn, state)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return err
	}
	rec.Traced = obsOn
	if obsOn {
		rec.Obs = obsValues(obs.Default.Snapshot())
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	rec.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return json.NewEncoder(os.Stdout).Encode(rec)
}

// enableObs starts recording on the process registry from zero, so the
// snapshot taken after the pass holds the pass's counts only.
func enableObs(on bool) {
	if on {
		obs.Default.Reset()
		obs.Default.SetEnabled(true)
	}
}

// obsValues flattens a snapshot: counters by name, histograms as
// "<name>.count" and "<name>.sum_s".
func obsValues(s obs.Snapshot) map[string]float64 {
	out := make(map[string]float64)
	for _, c := range s.Counters {
		out[c.Name] = float64(c.Value)
	}
	for _, h := range s.Histograms {
		out[h.Name+".count"] = float64(h.Count)
		out[h.Name+".sum_s"] = float64(h.SumNS) / 1e9
	}
	return out
}

// digestCells is the bit-exact identity of a campaign's cells: the
// JSON form of the summaries, which round-trips float64 exactly (the
// same form the daemon serves and daemonsmoke compares).
func digestCells(cells [][]stats.Summary) (string, error) {
	data, err := json.Marshal(cells)
	if err != nil {
		return "", err
	}
	return engine.Key(string(data)), nil
}

// warmFrequency scales the warm-up cell's alternation frequency. The
// warm-up keeps the campaign's analyzer and sample rate, so it builds
// the same FFT plans, but its kernel, alternation and envelope belong
// to another frequency, so no timed campaign can reuse them — not even
// through a process-wide kernel or simulation cache.
const warmFrequency = 0.75

// warmCell measures one untimed cell at spec's configuration with the
// frequency moved — the set-up every pass pays before timing: FFT
// plans, memory hierarchy pools and the measurement scratch come into
// existence here.
func warmCell(spec savat.CampaignSpec) error {
	mc, err := spec.MachineConfig()
	if err != nil {
		return err
	}
	cfg := spec.Config
	cfg.Frequency *= warmFrequency
	ev := spec.GridEvents()
	_, _, err = savat.NewMeasurer(mc, cfg).MeasurePair(ev[0], ev[len(ev)-1], 1, spec.Seed)
	return err
}
