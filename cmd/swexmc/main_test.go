package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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
		{[]string{"-dfs"}, "flag provided but not defined: -dfs"},
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

// TestProfilesGoToFiles pins -cpuprofile and -memprofile: both files are
// written, stdout is byte-identical to the same run without them, and a
// profile file that cannot be created is a usage error before anything
// runs.
func TestProfilesGoToFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	args := []string{"-spec", "h5", "-nodes", "2", "-ops", "2"}
	code, plain, stderr := swexmc(t, args...)
	if code != 0 {
		t.Fatalf("exit status %d, want 0 (stderr %q)", code, stderr)
	}
	code, profiled, stderr := swexmc(t, append(args, "-cpuprofile", cpu, "-memprofile", heap)...)
	if code != 0 || stderr != "" {
		t.Fatalf("profiled run: exit status %d, stderr %q; want 0 and nothing", code, stderr)
	}
	if profiled != plain {
		t.Fatalf("profiling changed stdout:\n%s\nwant\n%s", profiled, plain)
	}
	for _, name := range []string{cpu, heap} {
		if fi, err := os.Stat(name); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (%v)", name, err)
		}
	}
	missing := filepath.Join(dir, "missing", "p.pprof")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		code, stdout, stderr := swexmc(t, append(args, flag, missing)...)
		if code != 2 || !strings.Contains(stderr, flag+": ") || stdout != "" {
			t.Errorf("unwritable %s: exit status %d, stdout %q, stderr %q; want 2, nothing, a named error",
				flag, code, stdout, stderr)
		}
	}
}
