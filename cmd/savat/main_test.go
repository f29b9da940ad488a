package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary act as the savat command: tests
// re-execute themselves with it set, so the command runs with its own
// flags and a clean process, exactly as a user would run it.
const runMainEnv = "SAVAT_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A rejected invocation exits 1 with one error line that names the
// command exactly once, whether the error comes from the savat package
// (which prefixes its own errors) or from the command itself.
func TestErrorPrefixedOnce(t *testing.T) {
	for _, args := range [][]string{
		{"-machine", "Cray1"},
		{"-fast", "-pair", "ADD/LDM", "-distance", "-1"},
		{"-fast", "-pair", "ADD"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit status 1", args, err)
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "savat: ") || strings.HasPrefix(msg, "savat: savat: ") {
			t.Errorf("%v: stderr %q should start with exactly one \"savat: \"", args, msg)
		}
	}
}
