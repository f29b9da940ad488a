package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/internal/savat"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// The service-store traffic has the same shape for every seed, equal
// shares of the four job kinds, aligns the dedup jobs of both clients,
// and still differs in content.
func TestServiceStreams(t *testing.T) {
	a := newServiceWorkload(options{seed: 1})
	b := newServiceWorkload(options{seed: 2})
	if n := len(a.streams[0]) + len(a.streams[1]); n != clients*jobsPerClient || n < 100 {
		t.Fatalf("%d jobs per pass, want %d (at least 100)", n, clients*jobsPerClient)
	}
	kinds := map[string]int{}
	for c := range a.streams {
		for i, ja := range a.streams[c] {
			jb := b.streams[c][i]
			kinds[ja.kind]++
			if ja.kind != jb.kind || ja.slot != jb.slot {
				t.Fatalf("client %d job %d: shape differs across seeds: %+v vs %+v", c, i, ja, jb)
			}
			sa, sb := a.specs[ja.spec], b.specs[jb.spec]
			if sa.Machine != sb.Machine || sa.Config.Channel != sb.Config.Channel || len(sa.Events) != len(sb.Events) {
				t.Fatalf("client %d job %d: spec shape differs across seeds", c, i)
			}
			if ja.kind == kindDedup && a.streams[1-c][i] != ja {
				t.Fatalf("dedup job %d not shared by both clients", i)
			}
			if err := sa.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, k := range jobKinds {
		if kinds[k] != clients*jobsPerClient/len(jobKinds) {
			t.Errorf("%d %s jobs per pass, want an equal share of %d", kinds[k], k, clients*jobsPerClient)
		}
	}
	for _, i := range a.computedSpecs() {
		if i < prefillSpecs {
			t.Errorf("prefilled spec %d counted as computed", i)
		}
	}
	if a.specs[0].Seed == b.specs[0].Seed {
		t.Error("the seed does not reach the specs")
	}
}

func TestRendezvous(t *testing.T) {
	r := newRendezvous()
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() { errs <- r.arrive(context.Background(), 7) }()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { errs <- r.arrive(ctx, 8) }()
	cancel()
	if err := <-errs; err == nil {
		t.Fatal("a lone arrival returned without its partner or a cancel")
	}
}

// The outside stage decomposition reproduces campaign cells bit for
// bit on both channels, and a perturbed expectation is caught.
func TestReplayMatchesCampaign(t *testing.T) {
	for _, ch := range []string{"em", "power"} {
		cfg := savat.FastConfig()
		if ch != "em" {
			setChannel(&cfg, ch)
		}
		spec := savat.CampaignSpec{Machine: "TurionX2", Config: cfg, Events: []savat.Event{savat.ADD, savat.LDM, savat.DIV}, Repeats: 2, Seed: 5}
		res, err := savat.RunSpec(spec, savat.CampaignOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var st stageTimes
		var tl tally
		if err := replaySpec(spec, res.Cells, &st, &tl); err != nil {
			t.Fatal(err)
		}
		if tl.failed != 0 || tl.attempted != 9 || st.cells != 18 {
			t.Fatalf("%s: replay %d/%d checks failed over %d cells: %v", ch, tl.failed, tl.attempted, st.cells, tl.failures)
		}
		if st.envProducts <= 0 || st.render <= 0 || st.simCycles <= 0 {
			t.Fatalf("%s: stages not timed: %+v", ch, st)
		}
		res.Cells[1][2].Mean = math.Nextafter(res.Cells[1][2].Mean, 0)
		tl = tally{}
		if err := replaySpec(spec, res.Cells, &stageTimes{}, &tl); err != nil {
			t.Fatal(err)
		}
		if tl.failed != 1 {
			t.Fatalf("%s: a one-ulp change in one cell failed %d checks, want 1", ch, tl.failed)
		}
	}
}

// benchSpec is the part of BENCHMARK.json the result line must match.
type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEndToEnd builds the binary and runs the shortest workload both
// ways, checking the result line against BENCHMARK.json: exactly the
// listed metrics, with their units, every check passed.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the built benchmark for about a minute")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "savatbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
		out, err := exec.CommandContext(ctx, bin, "-workload", "fast-sweep", "-seed", "3", "-seconds", "1",
			"-trace", trace, "-work", filepath.Join(dir, "work")).Output()
		cancel()
		if err != nil {
			t.Fatalf("trace %s: %v", trace, err)
		}
		var last string
		for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
			last = sc.Text()
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			t.Fatalf("trace %s: last line %q: %v", trace, last, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %s: correct=%v failed=%d attempted=%d\n%s", trace, res.Correct, res.Failed, res.Attempted, out)
		}
		var names []string
		for _, m := range want {
			names = append(names, m.Name)
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
		if len(res.Metrics) != len(want) {
			sort.Strings(names)
			t.Errorf("trace %s: %d metrics, want exactly %v", trace, len(res.Metrics), names)
		}
	}
}
