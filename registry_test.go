package swex

import (
	"encoding/json"
	"testing"

	"swex/internal/sweep"
)

// TestRegistryJobsAreWireSafe checks the exhibit registry as the front
// ends use it: names are unique, every exhibit has work in both quick and
// full mode, and every job hashes and survives the JSON encoding swexd
// submits jobs in with an unchanged key.
func TestRegistryJobsAreWireSafe(t *testing.T) {
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
				key, err := j.Key("")
				if err != nil {
					t.Errorf("%s (quick=%v) job %d: %v", m.Name, o.Quick, i, err)
					continue
				}
				wire, err := json.Marshal(j)
				if err != nil {
					t.Fatalf("%s job %d: %v", m.Name, i, err)
				}
				var back sweep.Job
				if err := json.Unmarshal(wire, &back); err != nil {
					t.Fatalf("%s job %d: %v", m.Name, i, err)
				}
				if got, err := back.Key(""); err != nil || got != key {
					t.Errorf("%s (quick=%v) job %d: key after JSON round trip %q (%v), want %q",
						m.Name, o.Quick, i, got, err, key)
				}
			}
		}
	}
}

// TestSelectMatrices checks the argument resolution every front end
// shares.
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
