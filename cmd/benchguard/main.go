// Command benchguard compares a `go test -bench` run on stdin against a
// recorded benchjson baseline and fails when a benchmark's ns/op
// regresses past its budget, so performance contracts — like the
// measurement pipeline's "disabled observability costs under 1%" — are
// enforced by CI instead of by eyeballing.
//
//	go test -run '^$' -bench MeasureKernelScratch -benchtime 20x . > bench.out
//	benchguard -baseline BENCH_20260806.json -only MeasureKernelScratch < bench.out
//
// A current value passes while
//
//	current <= baseline * (1 + budget + noise)
//
// -budget is the performance budget under guard (default 1%); -noise is
// extra multiplicative slack for run-to-run and machine-to-machine
// variance (CI runners are not the machine that recorded the baseline).
// Benchmarks missing from the baseline are reported and skipped; a run
// in which -only matches nothing fails, so a renamed benchmark cannot
// silently disarm the guard.
//
// -zeroalloc takes a second regexp of benchmarks that must report
// exactly 0 allocs/op in the current run. Allocation counts are
// deterministic, so no baseline or slack is involved; a matching
// benchmark that reports no allocs/op metric at all fails too, so
// dropping b.ReportAllocs() cannot disarm the assertion. This is how
// the "disabled observability sites allocate nothing" contract is
// enforced against harness artifacts as well as real regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
)

func main() {
	var (
		baseline  = flag.String("baseline", "", "benchjson snapshot to compare against (required)")
		budget    = flag.Float64("budget", 0.01, "allowed fractional ns/op regression past the baseline")
		noise     = flag.Float64("noise", 0.25, "extra fractional slack for run and machine variance")
		only      = flag.String("only", "", "regexp restricting which benchmarks are guarded (default all)")
		zeroalloc = flag.String("zeroalloc", "", "regexp of benchmarks that must report 0 allocs/op")
	)
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *baseline, *budget, *noise, *only, *zeroalloc); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer, baseline string, budget, noise float64, only, zeroalloc string) error {
	if baseline == "" {
		return fmt.Errorf("-baseline is required")
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		return err
	}
	var base benchfmt.File
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baseline, err)
	}
	cur, err := benchfmt.Parse(in)
	if err != nil {
		return err
	}
	// go test names a benchmark BenchmarkX-N when GOMAXPROCS is N > 1;
	// guard it as BenchmarkX, so anchored -only/-zeroalloc patterns and
	// baseline lookups work on any host.
	for _, f := range []*benchfmt.File{&base, cur} {
		for i := range f.Benchmarks {
			f.Benchmarks[i].Name = stripProcs(f.Benchmarks[i].Name)
		}
	}
	// A -count run yields one line per repetition; guard the mean, like
	// the baselines record it.
	cur.Aggregate()
	var keep, mustZero *regexp.Regexp
	if only != "" {
		if keep, err = regexp.Compile(only); err != nil {
			return fmt.Errorf("-only: %w", err)
		}
	}
	if zeroalloc != "" {
		if mustZero, err = regexp.Compile(zeroalloc); err != nil {
			return fmt.Errorf("-zeroalloc: %w", err)
		}
	}

	limitFactor := 1 + budget + noise
	compared, failed := 0, 0
	fmt.Fprintf(out, "benchguard: baseline %s (%s), limit = baseline × %.3f\n", baseline, base.Date, limitFactor)
	for _, b := range cur.Benchmarks {
		if mustZero != nil && mustZero.MatchString(b.Name) {
			compared++
			allocs, ok := b.Metrics["allocs/op"]
			switch {
			case !ok:
				failed++
				fmt.Fprintf(out, "  FAIL %-45s reports no allocs/op (missing b.ReportAllocs?)\n", b.Name)
			case allocs != 0:
				failed++
				fmt.Fprintf(out, "  FAIL %-45s %12.0f allocs/op, want 0\n", b.Name, allocs)
			default:
				fmt.Fprintf(out, "  ok   %-45s %12.0f allocs/op\n", b.Name, allocs)
			}
		}
		if keep != nil && !keep.MatchString(b.Name) {
			continue
		}
		curNS, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		ref, ok := base.Find(b.Name)
		if !ok {
			fmt.Fprintf(out, "  SKIP %-45s not in baseline (record a new snapshot)\n", b.Name)
			continue
		}
		baseNS := ref.Metrics["ns/op"]
		if baseNS <= 0 {
			fmt.Fprintf(out, "  SKIP %-45s baseline has no ns/op\n", b.Name)
			continue
		}
		compared++
		limit := baseNS * limitFactor
		verdict := "ok"
		if curNS > limit {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(out, "  %-4s %-45s %12.0f ns/op vs %12.0f ns/op baseline (%.3fx, limit %.3fx)\n",
			verdict, b.Name, curNS, baseNS, curNS/baseNS, limitFactor)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmark on stdin matched the baseline (only=%q) — nothing was guarded", only)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d guarded benchmarks regressed past budget %.1f%% (+%.0f%% noise slack)",
			failed, compared, budget*100, noise*100)
	}
	fmt.Fprintf(out, "benchguard: %d benchmarks within budget\n", compared)
	return nil
}

// stripProcs drops a trailing -N GOMAXPROCS suffix from a benchmark
// name: BenchmarkMeasureKernelScratch-2 → BenchmarkMeasureKernelScratch.
// A non-numeric tail (BenchmarkPlanFor/new-plan) is part of the name.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
