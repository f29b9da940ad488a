package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/machine"
	"repro/internal/savat"
	"repro/internal/service"
	"repro/internal/stats"
)

// Service-store traffic: two closed-loop clients, each submitting
// jobsPerClient small FastConfig campaigns against an in-process
// savatd whose state directory is prefilled with prefillSpecs
// campaigns.
//
// The repository has no record of real savatd traffic, so the mix is
// an assumption, not a measurement. It takes the least arbitrary
// choice everywhere: equal shares of the four job kinds, of the three
// machines and of the em and power channels, and the paper's own
// distances. The report gives latency per kind, so a change can be
// judged without leaning on these weights.
const (
	clients       = 2
	jobsPerClient = 56 // 14 of each kind per client
	prefillSpecs  = 16
	jobRepeats    = 2
)

// Job kinds of the service-store stream.
const (
	kindRepeat  = "repeat"  // exact repeat of a prefilled spec: reads only
	kindDedup   = "dedup"   // both clients submit it at the same moment
	kindVariant = "variant" // prefilled spec at another distance or channel
	kindFresh   = "fresh"   // new events and seed: full compute and writes
)

var jobKinds = []string{kindRepeat, kindDedup, kindVariant, kindFresh}

type streamJob struct {
	kind string
	spec int // index into serviceWorkload.specs
	slot int // dedup rendezvous slot; -1 for the other kinds
}

type serviceWorkload struct {
	o       options
	specs   []savat.CampaignSpec
	streams [clients][]streamJob
	state   string // prefilled state directory

	direct [][][]stats.Summary // direct in-process RunSpec cells, per spec
}

var (
	serviceMachines  = []string{"Core2Duo", "Pentium3M", "TurionX2"}
	serviceChannels  = []string{"em", "power"}
	serviceDistances = []float64{0.10, 0.50, 1.00} // Figures 9, 17 and 18
)

// shapeSeed fixes the shape of the service-store traffic — job kinds
// and their order, event grids, machines, channels, which prefilled
// spec a repeat or variant starts from and how a variant differs from
// it — so every seed runs the same kernels and the same amount of
// work, collisions between variants included. The workload seed picks
// the rest of each spec: its distance and its campaign seed, and with
// them every cell value and every cache key.
const shapeSeed = 0x5a7a7

// newServiceWorkload generates the run's spec table and client streams
// from the seed alone, so the parent and every pass child agree.
func newServiceWorkload(o options) *serviceWorkload {
	w := &serviceWorkload{o: o}
	shape := rand.New(rand.NewSource(shapeSeed))
	rng := rand.New(rand.NewSource(o.seed))
	add := func(s savat.CampaignSpec) int {
		w.specs = append(w.specs, s)
		return len(w.specs) - 1
	}
	fresh := func() int {
		n := 3 + shape.Intn(2)
		mach := serviceMachines[shape.Intn(len(serviceMachines))]
		channel := serviceChannels[shape.Intn(len(serviceChannels))]
		ev := savat.Events()
		shape.Shuffle(len(ev), func(i, j int) { ev[i], ev[j] = ev[j], ev[i] })
		cfg := savat.FastConfig()
		cfg.Distance = serviceDistances[rng.Intn(len(serviceDistances))]
		setChannel(&cfg, channel)
		return add(savat.CampaignSpec{
			Version: savat.SpecVersion,
			Machine: mach,
			Config:  cfg,
			Events:  ev[:n],
			Repeats: jobRepeats,
			Seed:    1 + rng.Int63n(1<<40),
		})
	}
	for i := 0; i < prefillSpecs; i++ {
		fresh()
	}
	// A variant moves a prefilled spec to one of the other distances,
	// chosen by an offset so that which variants coincide does not
	// depend on the seed, or flips its channel.
	variant := func() int {
		s := w.specs[shape.Intn(prefillSpecs)]
		cfg := s.Config
		if shape.Intn(2) == 0 {
			i := slices.Index(serviceDistances, cfg.Distance)
			k := 1 + shape.Intn(len(serviceDistances)-1)
			cfg.Distance = serviceDistances[(i+k)%len(serviceDistances)]
		} else if cfg.Channel == "power" {
			setChannel(&cfg, "em")
		} else {
			setChannel(&cfg, "power")
		}
		s.Config = cfg
		return add(s)
	}
	// Both clients share one shuffled kind sequence, so a dedup job
	// sits at the same position in both streams.
	kinds := make([]string, jobsPerClient)
	for j := range kinds {
		kinds[j] = jobKinds[j%len(jobKinds)]
	}
	shape.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	slot := 0
	for _, kind := range kinds {
		if kind == kindDedup {
			sj := streamJob{kindDedup, fresh(), slot}
			slot++
			for c := range w.streams {
				w.streams[c] = append(w.streams[c], sj)
			}
			continue
		}
		for c := range w.streams {
			sj := streamJob{kind, 0, -1}
			switch kind {
			case kindRepeat:
				sj.spec = shape.Intn(prefillSpecs)
			case kindVariant:
				sj.spec = variant()
			default:
				sj.spec = fresh()
			}
			w.streams[c] = append(w.streams[c], sj)
		}
	}
	return w
}

// setChannel switches a config to a side channel with that channel's
// own noise environment, as the command-line tools do.
func setChannel(cfg *savat.Config, name string) {
	ch, _ := machine.ChannelByName(name) // fixed names: em, power
	cfg.Channel = name
	cfg.Environment = ch.Environment()
}

// prepare builds the prefilled state directory: every prefill spec
// run to completion on a savatd with that directory, then closed.
func (w *serviceWorkload) prepare() error {
	dir, err := workDir(w.o, "prefill")
	if err != nil {
		return err
	}
	w.state = dir
	srv, err := service.New(service.Options{StateDir: dir})
	if err != nil {
		return err
	}
	defer srv.Close()
	var ids []string
	for i := 0; i < prefillSpecs; i++ {
		jb, err := srv.Submit(w.specs[i], service.SubmitOptions{})
		if err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
		ids = append(ids, jb.ID)
	}
	for _, id := range ids {
		done, err := srv.Done(id)
		if err != nil {
			return err
		}
		<-done
		if jb, _ := srv.Get(id); jb.State != service.StateDone {
			return fmt.Errorf("prefill %s: %s %s", id, jb.State, jb.Error)
		}
	}
	return nil
}

func (w *serviceWorkload) childArgs() []string { return []string{"-state", w.state} }

// servicePass is the child side of a service-store pass. The set-up —
// savatd started on a fresh copy of the prefilled state directory — is
// repeated setupRepeats times, each on its own copy, and its median is
// the pass's set-up time; the last daemon then serves both client
// streams to completion (the pass).
func servicePass(o options, obsOn bool, state string) (passRecord, error) {
	w := newServiceWorkload(o)
	var (
		rec           passRecord
		d             *daemon
		setups, opens []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return rec, err
			}
		}
		dir, err := workDir(o, fmt.Sprintf("pass-%d-%d", os.Getpid(), k))
		if err != nil {
			return rec, err
		}
		defer os.RemoveAll(dir)
		if err := copyDir(state, dir); err != nil {
			return rec, err
		}
		if d, err = startDaemon(dir); err != nil {
			return rec, err
		}
		setups, opens = append(setups, d.setupS), append(opens, d.openS)
	}
	rec.SetupS, rec.StoreOpenS = median(setups), median(opens)

	enableObs(obsOn)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rdv := newRendezvous()
	jobs := make([][]jobRecord, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	passStart := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			jobs[c], errs[c] = w.client(ctx, d.base, c, rdv)
			if errs[c] != nil {
				cancel() // release the other client from any rendezvous
			}
		}(c)
	}
	wg.Wait()
	rec.PassS = time.Since(passStart).Seconds()

	if err := errors.Join(append(errs, d.stop())...); err != nil {
		return rec, err
	}
	for _, js := range jobs {
		rec.Jobs = append(rec.Jobs, js...)
	}
	return rec, nil
}

// setupRepeats is how many times a service-store pass starts savatd;
// the median start-up is reported.
const setupRepeats = 7

// daemon is an in-process savatd serving its HTTP API on loopback.
type daemon struct {
	srv           *service.Server
	hs            *http.Server
	served        chan error
	base          string
	openS, setupS float64
}

// startDaemon opens the service on dir (store open and index replay)
// and starts its API on a loopback listener, timing both.
func startDaemon(dir string) (*daemon, error) {
	t0 := time.Now()
	srv, err := service.New(service.Options{StateDir: dir})
	if err != nil {
		return nil, err
	}
	openS := time.Since(t0).Seconds()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), openS: openS}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.setupS = time.Since(t0).Seconds()
	return d, nil
}

// stop shuts the API down and closes the service, flushing its store.
func (d *daemon) stop() error {
	shutErr := d.hs.Shutdown(context.Background())
	d.srv.Close()
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return shutErr
}

// client runs one closed-loop client: submit, follow the job's event
// stream to its end, fetch the result, then the next job. Failed jobs
// are recorded, not fatal; only a broken harness (ctx) stops the loop.
func (w *serviceWorkload) client(ctx context.Context, base string, c int, rdv *rendezvous) ([]jobRecord, error) {
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	var out []jobRecord
	for _, sj := range w.streams[c] {
		if sj.slot >= 0 {
			if err := rdv.arrive(ctx, sj.slot); err != nil {
				return out, err
			}
		}
		out = append(out, w.runJob(ctx, hc, base, sj))
	}
	return out, nil
}

func (w *serviceWorkload) runJob(ctx context.Context, hc *http.Client, base string, sj streamJob) jobRecord {
	rec := jobRecord{Kind: sj.kind, Spec: sj.spec}
	fail := func(err error) jobRecord {
		rec.Error = err.Error()
		return rec
	}
	body, err := json.Marshal(struct {
		Spec savat.CampaignSpec `json:"spec"`
	}{w.specs[sj.spec]})
	if err != nil {
		return fail(err)
	}
	t0 := time.Now()
	var jb service.Job
	if err := doJSON(ctx, hc, http.MethodPost, base+"/v1/campaigns", body, http.StatusAccepted, &jb); err != nil {
		return fail(err)
	}
	rec.SubmitS = time.Since(t0).Seconds()
	if err := drain(ctx, hc, base+"/v1/campaigns/"+jb.ID+"/events"); err != nil {
		return fail(err)
	}
	var res savat.MatrixStats
	if err := doJSON(ctx, hc, http.MethodGet, base+"/v1/campaigns/"+jb.ID+"/result", nil, http.StatusOK, &res); err != nil {
		return fail(err)
	}
	rec.LatencyS = time.Since(t0).Seconds()
	if err := doJSON(ctx, hc, http.MethodGet, base+"/v1/campaigns/"+jb.ID, nil, http.StatusOK, &jb); err != nil {
		return fail(err)
	}
	rec.State = string(jb.State)
	rec.QueueS = jb.Started.Sub(jb.Created).Seconds()
	rec.RunS = jb.Finished.Sub(jb.Started).Seconds()
	if rec.Digest, err = digestCells(res.Cells); err != nil {
		return fail(err)
	}
	return rec
}

// doJSON sends one request and decodes a JSON response with the
// expected status.
func doJSON(ctx context.Context, hc *http.Client, method, url string, body []byte, want int, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// drain follows a job's NDJSON event stream until the server ends it,
// which it does once the job is terminal.
func drain(ctx context.Context, hc *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// rendezvous lets both clients submit a dedup job at the same moment:
// each dedup slot opens once both have arrived at it.
type rendezvous struct {
	mu    sync.Mutex
	slots map[int]*slotGate
}

type slotGate struct {
	arrived int
	open    chan struct{}
}

func newRendezvous() *rendezvous { return &rendezvous{slots: map[int]*slotGate{}} }

func (r *rendezvous) arrive(ctx context.Context, slot int) error {
	r.mu.Lock()
	g := r.slots[slot]
	if g == nil {
		g = &slotGate{open: make(chan struct{})}
		r.slots[slot] = g
	}
	g.arrived++
	if g.arrived == clients {
		close(g.open)
	}
	r.mu.Unlock()
	select {
	case <-g.open:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

func (w *serviceWorkload) finish(recs []passRecord, rep *report, t *tally) error {
	var kinds = map[string]int{}
	cells := 0
	for _, s := range w.streams {
		for _, sj := range s {
			kinds[sj.kind]++
			n := len(w.specs[sj.spec].Events)
			cells += n * n * jobRepeats
		}
	}
	rep.Host.JobsPass = clients * jobsPerClient
	rep.Host.CellsPass = cells
	for k, n := range kinds {
		rep.Samples["jobs_"+k] = n
	}

	// Direct in-process runs of every spec the streams use: the oracle
	// every served result must equal bit for bit, so checking its cells
	// checks theirs.
	used := map[int]bool{}
	for _, s := range w.streams {
		for _, sj := range s {
			used[sj.spec] = true
		}
	}
	w.direct = make([][][]stats.Summary, len(w.specs))
	digests := make([]string, len(w.specs))
	for i := range w.specs {
		if !used[i] {
			continue
		}
		res, err := savat.RunSpec(w.specs[i], savat.CampaignOptions{})
		if err != nil {
			return fmt.Errorf("direct run of spec %d: %w", i, err)
		}
		w.direct[i] = res.Cells
		checkCells(t, fmt.Sprintf("spec %d", i), res.Cells, jobRepeats)
		if digests[i], err = digestCells(res.Cells); err != nil {
			return err
		}
	}

	var setup, open, pass, rss, lat, submit, queue, runS []float64
	latByKind := map[string][]float64{}
	for p, r := range recs {
		setup = append(setup, r.SetupS)
		open = append(open, r.StoreOpenS)
		if !t.check(len(r.Jobs) == clients*jobsPerClient, "pass %d: %d jobs, want %d", p, len(r.Jobs), clients*jobsPerClient) {
			continue
		}
		same := true
		for i, j := range r.Jobs {
			t.check(j.Error == "" && j.State == string(service.StateDone), "pass %d job %d (%s): state %q %s", p, i, j.Kind, j.State, j.Error)
			t.check(j.Digest == digests[j.Spec], "pass %d job %d (%s, spec %d): result differs from a direct run", p, i, j.Kind, j.Spec)
			same = same && j.Digest == recs[0].Jobs[i].Digest
			if !r.Traced {
				lat = append(lat, j.LatencyS)
				latByKind[j.Kind] = append(latByKind[j.Kind], j.LatencyS)
			}
			submit = append(submit, j.SubmitS)
			queue = append(queue, j.QueueS)
			runS = append(runS, j.RunS)
		}
		t.check(same, "pass %d: result digests differ from pass 0", p)
		if !r.Traced {
			pass = append(pass, r.PassS)
			rss = append(rss, r.RSSMB)
		}
	}
	rep.PassTimes = pass
	rep.EndToEnd["setup_s"] = metric{median(setup), "s"}
	rep.EndToEnd["pass_s"] = metric{median(pass), "s"}
	rep.EndToEnd["job_p50_s"] = metric{quantile(lat, 0.5), "s"}
	rep.EndToEnd["job_p90_s"] = metric{quantile(lat, 0.9), "s"}
	rep.EndToEnd["peak_rss_mb"] = metric{median(rss), "MB"}
	// Latency per kind, ungated: it shows what a change does to each
	// kind without leaning on the assumed mix.
	for k, xs := range latByKind {
		rep.EndToEnd["job_p50_s."+k] = metric{quantile(xs, 0.5), "s"}
		rep.EndToEnd["job_p90_s."+k] = metric{quantile(xs, 0.9), "s"}
	}
	rep.Samples["passes"] = len(pass)
	rep.Samples["setups"] = len(setup)
	rep.Samples["jobs"] = len(lat)

	if w.o.trace {
		var st stageTimes
		for _, i := range w.computedSpecs() {
			if err := replaySpec(w.specs[i], w.direct[i], &st, t); err != nil {
				return err
			}
		}
		perLayerMetrics(rep, recs, &st, t)
		rep.PerLayer["store.open_s"] = metric{median(open), "s"}
		rep.PerLayer["service.submit_s"] = metric{median(submit), "s"}
		rep.PerLayer["service.queue_s"] = metric{median(queue), "s"}
		rep.PerLayer["service.run_s"] = metric{median(runS), "s"}
	}
	return nil
}

// computedSpecs are the specs the daemon computes in a pass: each
// distinct spec a non-repeat job submits once, unless the prefilled
// store already holds it. Repeats only read, a dedup job is computed
// once for both clients, and a variant that coincides with an earlier
// one reads what that one wrote.
func (w *serviceWorkload) computedSpecs() []int {
	seen := map[string]bool{}
	key := func(i int) string {
		fp, _ := w.specs[i].Fingerprint() // every spec validates
		return fp
	}
	for i := 0; i < prefillSpecs; i++ {
		seen[key(i)] = true
	}
	var out []int
	for j := 0; j < jobsPerClient; j++ {
		for _, s := range w.streams {
			if sj := s[j]; sj.kind != kindRepeat && !seen[key(sj.spec)] {
				seen[key(sj.spec)] = true
				out = append(out, sj.spec)
			}
		}
	}
	return out
}
