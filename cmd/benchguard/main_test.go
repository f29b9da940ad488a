package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselineJSON = `{
  "date": "20260806",
  "benchmarks": [
    {"name": "BenchmarkMeasureKernelScratch", "iterations": 20, "metrics": {"ns/op": 1000000}},
    {"name": "BenchmarkOther", "iterations": 5, "metrics": {"ns/op": 500000}}
  ]
}
`

func writeBaseline(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(p, []byte(baselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func guard(t *testing.T, benchOut, only string, budget, noise float64) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(strings.NewReader(benchOut), &out, writeBaseline(t), budget, noise, only, "")
	return out.String(), err
}

func TestWithinBudgetPasses(t *testing.T) {
	out, err := guard(t, "BenchmarkMeasureKernelScratch 20 1004000 ns/op\n", "", 0.01, 0)
	if err != nil {
		t.Fatalf("0.4%% over baseline rejected: %v\n%s", err, out)
	}
	if !strings.Contains(out, "1 benchmarks within budget") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRegressionFails(t *testing.T) {
	out, err := guard(t, "BenchmarkMeasureKernelScratch 20 1020000 ns/op\n", "", 0.01, 0)
	if err == nil {
		t.Fatalf("2%% regression accepted:\n%s", out)
	}
	if !strings.Contains(out, "FAIL") {
		t.Errorf("output:\n%s", out)
	}
}

func TestNoiseSlackForgives(t *testing.T) {
	// The same 2% regression passes once run-variance slack is granted.
	if out, err := guard(t, "BenchmarkMeasureKernelScratch 20 1020000 ns/op\n", "", 0.01, 0.25); err != nil {
		t.Fatalf("regression within noise slack rejected: %v\n%s", err, out)
	}
}

func TestOnlyFilterAndMissingBaseline(t *testing.T) {
	benchOut := "BenchmarkMeasureKernelScratch 20 1000000 ns/op\n" +
		"BenchmarkBrandNew 3 9999999999 ns/op\n"
	out, err := guard(t, benchOut, "", 0.01, 0)
	if err != nil {
		t.Fatalf("unrelated new benchmark failed the guard: %v\n%s", err, out)
	}
	if !strings.Contains(out, "SKIP BenchmarkBrandNew") {
		t.Errorf("missing-baseline benchmark not reported:\n%s", out)
	}

	// -only matching nothing is an error, not a silent pass.
	if _, err := guard(t, benchOut, "NoSuchBenchmark", 0.01, 0); err == nil {
		t.Error("empty guard set accepted")
	}
}

func TestRequiresBaselineFlag(t *testing.T) {
	if err := run(strings.NewReader(""), &strings.Builder{}, "", 0.01, 0, "", ""); err == nil {
		t.Error("missing -baseline accepted")
	}
}

func TestZeroAllocAssertion(t *testing.T) {
	zero := func(benchOut string) (string, error) {
		var out strings.Builder
		err := run(strings.NewReader(benchOut), &out, writeBaseline(t), 0.01, 0,
			"MeasureKernelScratch$", "Disabled")
		return out.String(), err
	}
	pass := "BenchmarkMeasureKernelScratch 20 1000000 ns/op\n" +
		"BenchmarkDisabledCounter 1000 3 ns/op 0 B/op 0 allocs/op\n"
	if out, err := zero(pass); err != nil {
		t.Fatalf("zero-alloc benchmark rejected: %v\n%s", err, out)
	}

	// A nonzero allocation count fails even though ns/op is fine.
	leak := "BenchmarkMeasureKernelScratch 20 1000000 ns/op\n" +
		"BenchmarkDisabledCounter 1 3527 ns/op 464 B/op 7 allocs/op\n"
	out, err := zero(leak)
	if err == nil {
		t.Fatalf("7 allocs/op accepted on a zero-alloc site:\n%s", out)
	}
	if !strings.Contains(out, "want 0") {
		t.Errorf("output:\n%s", out)
	}

	// Dropping b.ReportAllocs (no allocs/op metric) cannot disarm the guard.
	silent := "BenchmarkMeasureKernelScratch 20 1000000 ns/op\n" +
		"BenchmarkDisabledCounter 1000 3 ns/op\n"
	if out, err := zero(silent); err == nil {
		t.Fatalf("missing allocs/op metric accepted on a zero-alloc site:\n%s", out)
	}
}

// go test appends -N to benchmark names when GOMAXPROCS is N > 1. The
// guard must still find the benchmark under its anchored name, compare
// it to the suffix-free baseline, and apply the zero-alloc assertion.
func TestGOMAXPROCSSuffixStripped(t *testing.T) {
	var out strings.Builder
	benchOut := "BenchmarkMeasureKernelScratch-2 20 1000000 ns/op 48 B/op 2 allocs/op\n" +
		"BenchmarkDisabledCounter-2 1000 3 ns/op 0 B/op 0 allocs/op\n"
	err := run(strings.NewReader(benchOut), &out, writeBaseline(t), 0.01, 0,
		"MeasureKernelScratch$", "BenchmarkMeasureKernelScratch$|BenchmarkDisabled")
	if err == nil {
		t.Fatalf("2 allocs/op on BenchmarkMeasureKernelScratch-2 accepted:\n%s", out.String())
	}
	for _, want := range []string{
		"FAIL BenchmarkMeasureKernelScratch",
		"ok   BenchmarkMeasureKernelScratch",
		"ok   BenchmarkDisabledCounter",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	clean := "BenchmarkMeasureKernelScratch-2 20 1000000 ns/op 0 B/op 0 allocs/op\n" +
		"BenchmarkDisabledCounter-2 1000 3 ns/op 0 B/op 0 allocs/op\n"
	if err := run(strings.NewReader(clean), &out, writeBaseline(t), 0.01, 0,
		"MeasureKernelScratch$", "BenchmarkMeasureKernelScratch$|BenchmarkDisabled"); err != nil {
		t.Fatalf("suffixed benchmarks within budget rejected: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "3 benchmarks within budget") {
		t.Errorf("want the ns/op and both zero-alloc checks counted:\n%s", out.String())
	}
	if got := stripProcs("BenchmarkPlanFor/new-plan"); got != "BenchmarkPlanFor/new-plan" {
		t.Errorf("non-numeric tail stripped: %q", got)
	}
}
