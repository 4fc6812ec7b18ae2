package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"swex/internal/litmus"
)

// runMainEnv marks a re-executed test binary that runs main with the
// arguments after "--" instead of the tests.
const runMainEnv = "SWEXMC_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"swexmc"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// swexmc runs main in a child process and returns its exit status,
// stdout and stderr.
func swexmc(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	default:
		t.Fatalf("swexmc %v: %v", args, err)
		return 0, "", ""
	}
}

// TestBadInputExits2 pins that each kind of bad input is a usage error
// (exit 2) whose message names what was wrong, reported before any
// exploration, rather than a silent default.
func TestBadInputExits2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-spec", "nosuch"}, "unknown protocol alias"},
		{[]string{"-spec", "dls"}, litmus.ErrAlias.Error() + ` "dls"`},
		{[]string{"-configure", "full,nosuch"}, "-configure: litmus: unknown protocol alias"},
		{[]string{"-drop-inv", "-3"}, "fault drops message -3"},
		{[]string{"-max-states", "-5"}, "state bound -5"},
		{[]string{"stray"}, "unexpected arguments [stray]"},
		{[]string{"-dfs", "-por"}, "POR requires BFS"},
		{[]string{"-nodes", "9"}, "9 nodes; exhaustive checking needs 2..8"},
		{[]string{"-blocks", "5"}, "5 blocks; exhaustive checking needs 1..4"},
	} {
		code, stdout, stderr := swexmc(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr %q does not contain %q", tc.args, stderr, tc.want)
		}
		if stdout != "" {
			t.Errorf("%v: printed %q before rejecting the input", tc.args, stdout)
		}
	}
}

// TestAliasRuns pins that -spec takes the protocol aliases swexrun and
// swexfuzz take, and that stdout names the protocol by its Spec.Name.
func TestAliasRuns(t *testing.T) {
	code, stdout, stderr := swexmc(t, "-spec", "h5", "-nodes", "2", "-ops", "1")
	if code != 0 {
		t.Fatalf("exit status %d, want 0 (stderr %q)", code, stderr)
	}
	if !strings.HasPrefix(stdout, "DirnH5SNB ") {
		t.Fatalf("stdout %q does not report DirnH5SNB", stdout)
	}
}

// TestSeededBugExits1 pins the counterexample path: dropping the first
// invalidation on the full-map machine is an agreement violation, exit 1.
func TestSeededBugExits1(t *testing.T) {
	code, stdout, stderr := swexmc(t, "-spec", "full", "-drop-inv", "1")
	if code != 1 {
		t.Fatalf("exit status %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stdout, "\nVIOLATION agreement: ") {
		t.Fatalf("stdout %q has no agreement violation", stdout)
	}
}
