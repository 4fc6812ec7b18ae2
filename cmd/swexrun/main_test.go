package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"swex/internal/litmus"
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

// TestThreadsOutOfRangeExits2 pins that, in every mode, a context count
// outside 0..proc.MaxContexts is a usage error that names
// machine.ErrThreads, reported before any machine (and so any thread) is
// built.
func TestThreadsOutOfRangeExits2(t *testing.T) {
	for _, mode := range []string{"", "trace", "profile"} {
		for _, threads := range []string{"-1", "5", "1000000"} {
			args := []string{"-worker", "2", "-nodes", "2", "-threads", threads}
			if mode != "" {
				args = append([]string{mode}, args...)
			}
			code, stderr := swexrun(t, args...)
			if code != 2 {
				t.Errorf("%q -threads %s: exit status %d, want 2 (stderr %q)", mode, threads, code, stderr)
			}
			if !strings.Contains(stderr, machine.ErrThreads.Error()) {
				t.Errorf("%q -threads %s: stderr %q does not name ErrThreads", mode, threads, stderr)
			}
		}
	}
}

// TestBadInputExits2 pins that each kind of bad input is a usage error
// (exit 2) whose message names what was wrong, rather than a crash, a
// silent default or a degenerate run.
func TestBadInputExits2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-worker", "2", "-nodes", "2", "-protocol", "h9"}, "unknown protocol alias"},
		{[]string{"-worker", "2", "-nodes", "2", "-protocol", "dls"}, litmus.ErrAlias.Error() + ` "dls"`},
		{[]string{"-app", "NOPE", "-nodes", "2"}, "unknown application"},
		{[]string{"trace", "fig3-point"}, errPreset.Error()},
		{[]string{"-worker", "2", "-nodes", "2", "-software", "bogus"}, errSoftware.Error()},
		{[]string{"-worker", "2", "-nodes", "2", "-iters", "-3"}, errIters.Error()},
		{[]string{"trace", "-worker", "2", "-nodes", "2", "-ring", "-1"}, errRing.Error()},
		{[]string{"-worker", "2", "-nodes", "2", "-protocol", "h2", "-software", "asm"}, "hand-tuned assembly"},
		{[]string{"-nodes", "2"}, errWorkload.Error()},
		{[]string{"-worker", "2", "-o", "x.json"}, "flag provided but not defined: -o"},
		{[]string{"profile", "-nodes", "64", "-protocol", "h0", "fig2-point"}, errConflict.Error() + ": preset fig2-point sets -nodes"},
		{[]string{"-iters", "3", "table2"}, errConflict.Error() + ": preset table2 sets -iters"},
		{[]string{"-worker", "2", "-app", "WATER"}, errConflict.Error() + ": -worker and -app"},
		{[]string{"-app", "WATER", "fig2-point"}, errConflict.Error() + ": -worker and -app"},
	} {
		code, stderr := swexrun(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr %q does not contain %q", tc.args, stderr, tc.want)
		}
	}
}
