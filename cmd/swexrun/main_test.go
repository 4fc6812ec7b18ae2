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

// swexrun runs main in a child process and returns its exit status,
// stdout and stderr.
func swexrun(t *testing.T, args ...string) (int, string, string) {
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
		t.Fatalf("swexrun %v: %v", args, err)
		return 0, "", ""
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
			code, _, stderr := swexrun(t, args...)
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
		code, _, stderr := swexrun(t, tc.args...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2 (stderr %q)", tc.args, code, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: stderr %q does not contain %q", tc.args, stderr, tc.want)
		}
	}
}

// TestProfilesGoToFiles pins -cpuprofile and -memprofile: they write
// non-empty profiles and change nothing printed, and a profile file that
// cannot be created exits 2 with a named error before anything runs.
func TestProfilesGoToFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	args := []string{"-worker", "2", "-nodes", "4"}
	code, plain, stderr := swexrun(t, args...)
	if code != 0 {
		t.Fatalf("exit status %d, want 0 (stderr %q)", code, stderr)
	}
	code, profiled, stderr := swexrun(t, append(args, "-cpuprofile", cpu, "-memprofile", heap)...)
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
		code, stdout, stderr := swexrun(t, append(args, flag, missing)...)
		if code != 2 || !strings.Contains(stderr, flag+": ") || stdout != "" {
			t.Errorf("unwritable %s: exit status %d, stdout %q, stderr %q; want 2, nothing, a named error",
				flag, code, stdout, stderr)
		}
	}
}
