package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"swex"
	"swex/internal/machine"
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
	if _, err := sweep.OpenCache(dir); err != nil {
		t.Fatal(err)
	}
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

// TestExecutedCountsSumToTotal pins the stderr accounting of one run: a
// point that several exhibits list counts as executed under the first of
// them only, so on a cold cache the per-exhibit executed counts sum to the
// closing total, and Figure 4 pays only for the points Table 3 lacks.
func TestExecutedCountsSumToTotal(t *testing.T) {
	code, stdout, stderr := runSwex(t, "-quick", "-cache", t.TempDir(), "table3", "fig4")
	if code != 0 {
		t.Fatalf("exit status %d, want 0 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stdout, "== table3: ") || !strings.Contains(stdout, "== fig4: ") {
		t.Fatalf("stdout %q lacks an exhibit", stdout)
	}
	line := regexp.MustCompile(`(?m)^swex: (\S+): (\d+) job\(s\), (\d+) executed, (\d+) from cache$`)
	total := regexp.MustCompile(`(?m)^swex: (\d+) simulation\(s\) executed on \d+ worker\(s\) in \d+\.\ds$`)
	lines := line.FindAllStringSubmatch(stderr, -1)
	closing := total.FindStringSubmatch(stderr)
	if len(lines) != 2 || lines[0][1] != "table3" || lines[1][1] != "fig4" || closing == nil {
		t.Fatalf("stderr %q: want a table3 line, a fig4 line and a closing total", stderr)
	}
	n := func(s string) int {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	sum := 0
	for _, l := range lines {
		jobs, executed, cached := n(l[2]), n(l[3]), n(l[4])
		if executed+cached != jobs {
			t.Errorf("%s: %d executed + %d from cache != %d job(s)", l[1], executed, cached, jobs)
		}
		sum += executed
	}
	if got := n(closing[1]); sum != got {
		t.Errorf("per-exhibit executed counts sum to %d, the closing total is %d", sum, got)
	}
	if table3 := n(lines[0][2]); n(lines[0][3]) != table3 || n(lines[1][4]) < table3 {
		t.Errorf("stderr %q: table3's %d cold points must execute under table3 and be reused by fig4", stderr, table3)
	}
}

// TestFailedJobPrintsNothing pins the failure path: the exhibits run as
// one sweep, so a failed job leaves stdout empty, and the error names the
// first failing exhibit and its own job index. The failures land in the
// cache directory, so -status then exits 1 and lists the first one.
func TestFailedJobPrintsNothing(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := runSwex(t, "-quick", "-cycle-budget", "1000", "-cache", dir, "table1", "fig2")
	if code != 1 {
		t.Fatalf("exit status %d, want 1 (stderr %q)", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("printed %q after a failed job", stdout)
	}
	if want := "swex: table1: sweep: job 0 ("; !strings.HasPrefix(stderr, want) {
		t.Fatalf("stderr %q does not start with %q", stderr, want)
	}

	ms, err := swex.SelectMatrices([]string{"table1"})
	if err != nil {
		t.Fatal(err)
	}
	key, err := ms[0].Jobs(swex.Options{Quick: true})[0].Key("")
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr = runSwex(t, "-status", "-cache", dir)
	if code != 1 {
		t.Fatalf("-status after a failure: exit status %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.HasPrefix(stdout, "cache "+dir+": ") || !strings.Contains(stdout, "  FAILED "+key+"\n") {
		t.Fatalf("-status stdout %q does not list the failed key %q", stdout, key)
	}
}

// TestOverBudgetJobFailsByName pins the cycle budget: a job that runs
// past it fails with machine.ErrIncomplete's text and the budget's cycle,
// and the default budget is the derived one, not unbounded.
func TestOverBudgetJobFailsByName(t *testing.T) {
	code, _, stderr := runSwex(t, "-quick", "-cycle-budget", "1000", "table1")
	if want := machine.ErrIncomplete.Error() + " at cycle 1000 "; code != 1 || !strings.Contains(stderr, want) {
		t.Fatalf("exit status %d, stderr %q; want 1 and %q", code, stderr, want)
	}
	code, _, stderr = runSwex(t, "-h")
	if want := fmt.Sprintf("(default %d)", defaultCycleBudget); code != 0 || !strings.Contains(stderr, want) {
		t.Fatalf("-h: exit status %d, usage %q does not show %s", code, stderr, want)
	}
}

// TestProfilesGoToFiles pins -cpuprofile and -memprofile: they write
// non-empty profiles and change nothing on stdout, and a profile file
// that cannot be created exits 2 with a named error before anything runs.
func TestProfilesGoToFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	args := []string{"-quick", "table1"}
	code, plain, stderr := runSwex(t, args...)
	if code != 0 {
		t.Fatalf("exit status %d, want 0 (stderr %q)", code, stderr)
	}
	code, profiled, stderr := runSwex(t, append([]string{"-cpuprofile", cpu, "-memprofile", heap}, args...)...)
	if code != 0 {
		t.Fatalf("profiled run: exit status %d, want 0 (stderr %q)", code, stderr)
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
		code, stdout, stderr := runSwex(t, append([]string{flag, missing}, args...)...)
		if code != 2 || !strings.Contains(stderr, flag+": ") || stdout != "" {
			t.Errorf("unwritable %s: exit status %d, stdout %q, stderr %q; want 2, nothing, a named error",
				flag, code, stdout, stderr)
		}
	}
}
