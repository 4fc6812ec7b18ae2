package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"swex/internal/machine"
)

// runMainEnv marks a re-executed test binary that runs main with the
// arguments after "--" instead of the tests.
const runMainEnv = "SWEXRUN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"swexrun"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// swexrun runs main in a child process and returns its exit status and
// stderr.
func swexrun(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	default:
		t.Fatalf("swexrun %v: %v", args, err)
		return 0, ""
	}
}

// TestThreadsOutOfRangeExits2 pins that a context count outside
// 0..proc.MaxContexts is a usage error that names machine.ErrThreads,
// reported before any machine (and so any thread) is built.
func TestThreadsOutOfRangeExits2(t *testing.T) {
	for _, threads := range []string{"-1", "5", "1000000"} {
		code, stderr := swexrun(t, "-worker", "2", "-nodes", "2", "-threads", threads)
		if code != 2 {
			t.Errorf("-threads %s: exit status %d, want 2 (stderr %q)", threads, code, stderr)
		}
		if !strings.Contains(stderr, machine.ErrThreads.Error()) {
			t.Errorf("-threads %s: stderr %q does not name ErrThreads", threads, stderr)
		}
	}
}
