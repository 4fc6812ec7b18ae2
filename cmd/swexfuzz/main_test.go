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
const runMainEnv = "SWEXFUZZ_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"swexfuzz"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// swexfuzz runs main in a child process and returns its exit status,
// stdout and stderr.
func swexfuzz(t *testing.T, args ...string) (int, string, string) {
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
		t.Fatalf("swexfuzz %v: %v", args, err)
		return 0, "", ""
	}
}

// TestBadInputExits2 pins that each kind of bad input is a usage error
// (exit 2) whose message names what was wrong, reported before any
// program runs, rather than a silent default or a run.
func TestBadInputExits2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-specs", "nosuch"}, `-specs: litmus: unknown protocol alias "nosuch"`},
		{[]string{"-specs", "dls"}, "-specs: " + litmus.ErrAlias.Error() + ` "dls"`},
		{[]string{"-specs", ","}, "names no spectrum points"},
		{[]string{"-threads", "-1"}, "-threads -1: " + errNegative.Error()},
		{[]string{"-vars", "-1"}, "-vars -1: " + errNegative.Error()},
		{[]string{"-ops", "-1"}, "-ops -1: " + errNegative.Error()},
		{[]string{"-workers", "-1"}, "-workers -1: " + errNegative.Error()},
		{[]string{"-programs", "-1"}, "-programs -1: " + errNegative.Error()},
		{[]string{"-limit", "-1"}, "-limit -1: " + errNegative.Error()},
		{[]string{"-threads", "5", "-nodes", "4"}, errThreads.Error()},
		{[]string{"-nodes", "1"}, "need at least 2 nodes"},
		{[]string{"stray"}, `unexpected argument "stray"`},
	} {
		code, stdout, stderr := swexfuzz(t, tc.args...)
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

// TestCampaignRuns pins the clean path: a small campaign judges every
// run sequentially consistent and exits 0.
func TestCampaignRuns(t *testing.T) {
	code, stdout, stderr := swexfuzz(t, "-programs", "3", "-specs", "full,h1ack")
	if code != 0 {
		t.Fatalf("exit status %d, want 0 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stdout, "spec h1ack: ") || !strings.Contains(stdout, ", 0 violation(s)\n") {
		t.Fatalf("stdout %q has no clean per-spec summary", stdout)
	}
}

// TestWeakenedFlagged pins the negative control: the lost-invalidation
// machine's stale read is flagged, which is success (exit 0).
func TestWeakenedFlagged(t *testing.T) {
	code, stdout, stderr := swexfuzz(t, "-weakened")
	if code != 0 {
		t.Fatalf("exit status %d, want 0 (stderr %q)", code, stderr)
	}
	if !strings.HasPrefix(stdout, "weakened fixture flagged as expected\n") {
		t.Fatalf("stdout %q does not report the flagged fixture", stdout)
	}
}

// TestViolationWitnessIsConstraintCycle pins the report's witness on a
// program small enough for CheckSC to decide by exhaustive search: the
// weakened fixture's stale read must be reported with the constraint
// checker's cycle, not the exhaustive search's generic note.
func TestViolationWitnessIsConstraintCycle(t *testing.T) {
	p, _ := litmus.WeakenedFixture(4)
	obs := [][]uint64{nil, {0, 2, 0}}
	cv, err := litmus.CheckConstraints(p, obs)
	if err != nil {
		t.Fatal(err)
	}
	if cv.OK || cv.Witness == "" {
		t.Fatalf("constraint checker judged the stale read %+v", cv)
	}
	report, err := judge(entry{name: "weakened", prog: p}, "full", obs)
	if err != nil {
		t.Fatal(err)
	}
	if want := "  witness: " + cv.Witness + "\n"; !strings.HasSuffix(report, want) {
		t.Fatalf("report %q does not end with the constraint witness line %q", report, want)
	}
}
