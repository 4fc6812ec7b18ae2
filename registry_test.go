package swex

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"swex/internal/sweep"
)

// TestRegistryJobsAreWellFormed checks the exhibit registry as the front
// end uses it: names are unique, every exhibit has work in both quick and
// full mode, and every job has a canonical cache key.
func TestRegistryJobsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Matrices() {
		if seen[m.Name] {
			t.Errorf("exhibit name %q registered twice", m.Name)
		}
		seen[m.Name] = true
		for _, o := range []Options{{Quick: true}, {}} {
			jobs := m.Jobs(o)
			if len(jobs) == 0 {
				t.Errorf("%s (quick=%v): no jobs", m.Name, o.Quick)
			}
			for i, j := range jobs {
				if _, err := j.Key(""); err != nil {
					t.Errorf("%s (quick=%v) job %d: %v", m.Name, o.Quick, i, err)
				}
			}
		}
	}
}

// TestSelectMatrices checks the front end's argument resolution.
func TestSelectMatrices(t *testing.T) {
	all, err := SelectMatrices([]string{"all"})
	if err != nil || len(all) != len(Matrices()) {
		t.Fatalf(`SelectMatrices("all") = %d exhibits, %v; want %d`, len(all), err, len(Matrices()))
	}
	two, err := SelectMatrices([]string{"ablate-cico", "fig2"})
	if err != nil || len(two) != 2 || two[0].Name != "ablate-cico" || two[1].Name != "fig2" {
		t.Fatalf("SelectMatrices(ablate-cico, fig2) = %v, %v", two, err)
	}
	if _, err := SelectMatrices(nil); err == nil {
		t.Error("empty argument list accepted")
	}
	if _, err := SelectMatrices([]string{"fig2", "no-such-exhibit"}); err == nil {
		t.Error("unknown exhibit name accepted")
	}
}

// TestExhibitJobsGolden pins every exhibit's job matrix in both modes: one
// line per job giving the mode, the exhibit name, the SHA-256 of the job's
// cache key and the job's description, compared with
// testdata/exhibit_jobs.golden. A refactor of the exhibits must leave this
// file untouched — the same jobs in the same order, so every result lands
// under the same label. The key embeds the simulator's code version, so
// the file is regenerated (with -update) whenever codeVersion in
// internal/sweep/job.go is bumped.
func TestExhibitJobsGolden(t *testing.T) {
	var b bytes.Buffer
	for _, mode := range []struct {
		name string
		o    Options
	}{{"full", Options{}}, {"quick", Options{Quick: true}}} {
		for _, m := range Matrices() {
			for _, j := range m.Jobs(mode.o) {
				key, err := j.Key("")
				if err != nil {
					t.Fatalf("%s %s: %v", mode.name, m.Name, err)
				}
				fmt.Fprintf(&b, "%s %s %s %s\n", mode.name, m.Name, sweep.HashKey(key), j)
			}
		}
	}
	path := filepath.Join("testdata", "exhibit_jobs.golden")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("exhibit job matrices drifted from golden %s; run with -update if intentional", path)
	}
}
