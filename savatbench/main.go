// Command savatbench is the end-to-end and per-layer benchmark of the
// SAVAT reproduction. One invocation runs one workload for a fixed
// measuring time and prints, as its last stdout line, one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s, pass_s,
// job_p50_s, job_p90_s, peak_rss_mb), measured with the obs registry
// disabled. With -trace 1 they are the per-layer ones: half of the
// passes run with the obs registry enabled, and one pass is replayed
// stage by stage through the layers' public calls, bit-checked against
// the campaign's own cells. The lines before the last carry the full
// report: host header, every end-to-end metric with its unit
// (error_rate, ref_rel_err and spearman included), every per-layer
// metric of a traced run and the science values. README.md maps each
// per-layer metric to the end-to-end metric it should move.
//
// Every pass runs in a fresh child process of this binary (-pass), so
// no pass is ever served from work an earlier pass computed, whatever
// process-wide caches the program grows, and so peak_rss_mb is the
// pass's own process.
//
//	bash savatbench/run.sh --workload paper-fig9 --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dsp"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-fig9", "fast-sweep", "service-store"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string // scratch directory inside the checkout
}

func main() {
	var (
		o     options
		trace int
		pass  bool
		obsOn bool
		state string
	)
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same inputs")
	flag.IntVar(&o.seconds, "seconds", 30, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.work, "work", "", "scratch directory, removed after the run (default .bench_build/work-<pid>)")
	flag.BoolVar(&pass, "pass", false, "internal: run one pass in this process and print its JSON record")
	flag.BoolVar(&obsOn, "obs", false, "internal: enable the obs registry for the pass")
	flag.StringVar(&state, "state", "", "internal: prefilled state directory for a service-store pass")
	flag.Parse()
	o.trace = trace == 1
	if o.work == "" {
		o.work = filepath.Join(".bench_build", "work-"+strconv.Itoa(os.Getpid()))
	}

	if pass {
		if err := runPassChild(o, obsOn, state); err != nil {
			fmt.Fprintln(os.Stderr, "savatbench: pass:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "savatbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted operations and failures; every failure is
// also recorded with its reason for the report.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		if len(t.failures) < 20 {
			t.failures = append(t.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// report is everything one run prints before the contract line.
type report struct {
	Host      host              `json:"host"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Science   map[string]any    `json:"science,omitempty"`
	Samples   map[string]int    `json:"samples"`
	Failures  []string          `json:"failures,omitempty"`
	Elapsed   float64           `json:"elapsed_s"`
	PassTimes []float64         `json:"pass_s_each"`
}

// host is the header recorded with every result.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	FFTKernel  string `json:"fft_kernel"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	JobsPass   int    `json:"jobs_per_pass"`
	CellsPass  int    `json:"cells_per_pass"`
}

func newHost(o options) host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		FFTKernel:  dsp.ActiveKernel(),
		Workload:   o.workload,
		Seed:       o.seed,
		Trace:      o.trace,
	}
}

// workload is what run drives: passes in child processes, then the
// checks and the traced replay in this process.
type workload interface {
	// prepare generates the run's inputs (untimed).
	prepare() error
	// childArgs are the extra arguments of a pass child.
	childArgs() []string
	// finish checks the passes' records, fills the report and the
	// metrics, and in a traced run replays one pass stage by stage.
	finish(recs []passRecord, rep *report, t *tally) error
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "paper-fig9", "fast-sweep":
		return newMatrixWorkload(o), nil
	case "service-store":
		return newServiceWorkload(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
}

func run(o options) error {
	start := time.Now()
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d must be at least 1", o.seconds)
	}
	w, err := newWorkload(o)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(o.work); err != nil {
		return err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.work)
	if err := w.prepare(); err != nil {
		return err
	}

	// Passes run back to back until the measuring time is spent, with a
	// floor so medians, cross-pass digests and (traced) the on/off
	// alternation always have samples.
	minPasses := 3
	if o.trace {
		minPasses = 4
	}
	var recs []passRecord
	measureStart := time.Now()
	for i := 0; i < minPasses || time.Since(measureStart) < time.Duration(o.seconds)*time.Second; i++ {
		rec, err := runPass(o, w, o.trace && i%2 == 1)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		recs = append(recs, rec)
	}

	rep := report{Host: newHost(o), EndToEnd: map[string]metric{}, Samples: map[string]int{}}
	var t tally
	if err := w.finish(recs, &rep, &t); err != nil {
		return err
	}
	rep.EndToEnd["error_rate"] = metric{float64(t.failed) / float64(max(t.attempted, 1)), "ratio"}
	rep.Failures = t.failures
	rep.Elapsed = time.Since(start).Seconds()

	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	if o.trace {
		res.Metrics = rep.PerLayer
	} else {
		res.Metrics = map[string]metric{}
		for _, name := range endToEndNames {
			res.Metrics[name] = rep.EndToEnd[name]
		}
	}
	if err := printReport(rep); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEndNames are the gated end-to-end metrics of BENCHMARK.json.
var endToEndNames = []string{"setup_s", "pass_s", "job_p50_s", "job_p90_s", "peak_rss_mb"}

// printReport writes the human-readable report: one "name value unit"
// line per metric, then the whole report as one JSON line.
func printReport(rep report) error {
	h := rep.Host
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s fft_kernel=%s workload=%s seed=%d trace=%v jobs/pass=%d cells/pass=%d\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.FFTKernel, h.Workload, h.Seed, h.Trace, h.JobsPass, h.CellsPass)
	for _, sec := range []struct {
		name string
		m    map[string]metric
	}{{"end-to-end", rep.EndToEnd}, {"per-layer", rep.PerLayer}} {
		names := make([]string, 0, len(sec.m))
		for n := range sec.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s: %-32s %.6g %s\n", sec.name, n, sec.m[n].Value, sec.m[n].Unit)
		}
	}
	for _, f := range rep.Failures {
		fmt.Println("failure:", f)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println("report:", string(data))
	return nil
}

// workDir returns a fresh numbered subdirectory of the run's scratch.
func workDir(o options, name string) (string, error) {
	dir := filepath.Join(o.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
