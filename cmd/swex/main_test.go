package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"swex/internal/sweep"
)

// runMainEnv marks a re-executed test binary that runs main with the
// arguments after "--" instead of the tests.
const runMainEnv = "SWEX_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		for i, a := range os.Args {
			if a == "--" {
				os.Args = append([]string{"swex"}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSwex runs main in a child process and returns its exit status, stdout
// and stderr.
func runSwex(t *testing.T, args ...string) (int, string, string) {
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
		t.Fatalf("swex %v: %v", args, err)
		return 0, "", ""
	}
}

// TestBadInputExits2 pins that each kind of bad input is a usage error
// (exit 2) whose message names what was wrong, reported before anything
// runs, and that a mistyped cache directory is not created.
func TestBadInputExits2(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nosuch")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "-1", "table1"}, "-workers -1: " + errNegative.Error()},
		{[]string{"-cycle-budget", "-1", "table1"}, "-cycle-budget -1: " + errNegative.Error()},
		{[]string{"-status", "-cache", missing}, errNoCache.Error()},
		{[]string{"-cache", missing, "compact"}, errNoCache.Error()},
		{[]string{"-status"}, "-status needs -cache DIR"},
		{[]string{"nosuch"}, "nosuch"},
		{nil, "no exhibits named"},
	} {
		code, stdout, stderr := runSwex(t, tc.args...)
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
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("a rejected -cache %s was created (stat: %v)", missing, err)
	}
}

// TestStatusOfEmptyCache pins the clean -status path: an existing cache
// with no jobs reports zero and exits 0.
func TestStatusOfEmptyCache(t *testing.T) {
	dir := t.TempDir()
	c, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	code, stdout, stderr := runSwex(t, "-status", "-cache", dir)
	if code != 0 {
		t.Fatalf("exit status %d, want 0 (stderr %q)", code, stderr)
	}
	if want := "cache " + dir + ": 0 job(s) done, 0 failed\n"; stdout != want {
		t.Fatalf("stdout %q, want %q", stdout, want)
	}
}

// TestListRunsNothing pins -list: it prints each job's hash and
// description and executes no simulation.
func TestListRunsNothing(t *testing.T) {
	code, stdout, stderr := runSwex(t, "-list", "-quick", "table1")
	if code != 0 {
		t.Fatalf("exit status %d, want 0 (stderr %q)", code, stderr)
	}
	if !strings.HasPrefix(stdout, "# table1: ") || strings.Count(stdout, "\n") < 2 {
		t.Fatalf("stdout %q does not list table1's jobs", stdout)
	}
	if stderr != "" {
		t.Fatalf("stderr %q: -list reported running something", stderr)
	}
}
