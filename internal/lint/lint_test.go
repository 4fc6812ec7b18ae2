package lint_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"swex/internal/lint"
)

// TestRepositoryIsClean runs the full analyzer suite over every non-test
// package of this module. This is the enforcement point of the
// determinism contract: a new violation anywhere in the tree fails
// `go test ./...`.
func TestRepositoryIsClean(t *testing.T) {
	root, modPath, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	loader := lint.NewLoader(root, modPath)
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	// Guard against a vacuous pass: the simulation core must be among the
	// loaded packages, fully type-checked.
	byPath := make(map[string]*lint.Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	cfg := lint.DefaultConfig()
	for _, core := range cfg.CorePaths {
		p, ok := byPath[core]
		if !ok {
			t.Fatalf("core package %s not loaded", core)
		}
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", core, terr)
		}
	}
	for _, d := range lint.Run(cfg, pkgs, lint.Analyzers()) {
		t.Errorf("%s", d)
	}
}

// fixtureConfig scopes the analyzers to the fixture packages: they are
// "core" so every rule applies, and their own types count as enums.
func fixtureConfig() *lint.Config {
	return &lint.Config{
		CorePaths:   []string{"fixture"},
		EnumModules: []string{"fixture"},
		CycleType:   "swex/internal/sim.Cycle",
		DocPaths:    []string{"fixture/exporteddoc"},
	}
}

// TestFixtures checks each analyzer against its golden fixture: every
// `// want "substr"` comment must be matched by exactly one diagnostic on
// that line, and no diagnostic may appear on an unmarked line.
func TestFixtures(t *testing.T) {
	root, modPath, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	for _, name := range []string{"determinism", "exhaustive", "cyclemath", "panichygiene", "exporteddoc"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			loader := lint.NewLoader(root, modPath)
			pkg, err := loader.Load(dir, "fixture/"+name)
			if err != nil {
				t.Fatalf("Load(%s): %v", dir, err)
			}
			for _, terr := range pkg.TypeErrors {
				t.Errorf("fixture type error: %v", terr)
			}
			wants := parseWants(t, dir)
			diags := lint.Run(fixtureConfig(), []*lint.Package{pkg}, lint.Analyzers())
			for _, d := range diags {
				if !wants.match(filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants.unmatched() {
				t.Errorf("missing diagnostic: %s:%d: want message containing %q", w.file, w.line, w.substr)
			}
		})
	}
}

// want is one expected diagnostic parsed from a fixture comment.
type want struct {
	file   string
	line   int
	substr string
	hit    bool
}

type wantSet struct{ wants []*want }

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// parseWants scans the fixture sources for `// want "substr"` markers.
func parseWants(t *testing.T, dir string) *wantSet {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%s): %v", dir, err)
	}
	set := &wantSet{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("open fixture: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRE.FindAllStringSubmatch(sc.Text(), -1) {
				set.wants = append(set.wants, &want{file: e.Name(), line: line, substr: m[1]})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scan fixture: %v", err)
		}
		f.Close()
	}
	if len(set.wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
	return set
}

// match consumes one unmatched want on the diagnostic's line whose
// substring appears in the message.
func (s *wantSet) match(file string, line int, message string) bool {
	for _, w := range s.wants {
		if !w.hit && w.file == file && w.line == line && strings.Contains(message, w.substr) {
			w.hit = true
			return true
		}
	}
	return false
}

func (s *wantSet) unmatched() []*want {
	var out []*want
	for _, w := range s.wants {
		if !w.hit {
			out = append(out, w)
		}
	}
	return out
}

// TestAnalyzersByName pins the CLI's analyzer-selection syntax.
func TestAnalyzersByName(t *testing.T) {
	as, err := lint.AnalyzersByName("determinism, cycle-math")
	if err != nil {
		t.Fatalf("AnalyzersByName: %v", err)
	}
	if len(as) != 2 || as[0].Name() != "determinism" || as[1].Name() != "cycle-math" {
		t.Fatalf("unexpected analyzer selection: %v", as)
	}
	if _, err := lint.AnalyzersByName("nope"); err == nil {
		t.Fatalf("AnalyzersByName accepted an unknown analyzer")
	}
}
