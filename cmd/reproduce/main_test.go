package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/reproduce_fast.golden from the current output")

// runMainEnv makes the test binary act as the reproduce command: the
// golden test re-executes itself with it set, so the command runs with
// its own flags and a clean process, exactly as a user would run it.
const runMainEnv = "REPRODUCE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestReproduceFastGolden runs every section of `reproduce -fast` and
// diffs its stdout, section by section, against the committed golden.
// The output is deterministic for a fixed seed — every matrix, the
// Figure 7/8 spectrum plots and peak lines (the traced measurement
// path), the sequence-additivity ratios — so any difference is a
// change in the numbers the reproduction reports. An intended change
// regenerates the golden with -update in the same commit.
func TestReproduceFastGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole -fast reproduction (seconds)")
	}
	cmd := exec.Command(os.Args[0], "-fast")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("reproduce -fast: %v\n%s", err, stderr.String())
	}
	path := filepath.Join("testdata", "reproduce_fast.golden")
	if *update {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, exp := sections(string(out)), sections(string(want))
	for _, w := range exp {
		g, ok := find(got, w.name)
		switch {
		case !ok:
			t.Errorf("section %s: missing from the output", w.name)
		case g != w.text:
			t.Errorf("section %s differs from the golden:\n%s", w.name, firstDiff(w.text, g))
		}
	}
	for _, g := range got {
		if _, ok := find(exp, g.name); !ok {
			t.Errorf("section %s: not in the golden", g.name)
		}
	}
}

type section struct{ name, text string }

// sections splits reproduce output at its "======== name ========"
// headers, in output order.
func sections(out string) []section {
	var ss []section
	for _, line := range strings.SplitAfter(out, "\n") {
		h := strings.TrimSpace(line)
		if strings.HasPrefix(h, "======== ") && strings.HasSuffix(h, " ========") {
			ss = append(ss, section{name: strings.Trim(h, "= ")})
		}
		if len(ss) == 0 {
			ss = append(ss, section{}) // text before the first header
		}
		ss[len(ss)-1].text += line
	}
	return ss
}

func find(ss []section, name string) (string, bool) {
	for _, s := range ss {
		if s.name == name {
			return s.text, true
		}
	}
	return "", false
}

// firstDiff reports the first line at which two section texts differ.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("  line %d\n  golden: %s\n  output: %s", i+1, w, g)
		}
	}
	return "  (no line differs)"
}
