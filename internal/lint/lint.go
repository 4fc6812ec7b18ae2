// Package lint is a stdlib-only static-analysis engine that enforces the
// simulator's determinism and protocol-exhaustiveness contracts. The
// paper's methodology rests on NWO's deterministic behavior: re-running a
// configuration must yield the identical cycle count, and the coherence
// checker's panic point must be exactly reproducible. Those properties are
// easy to break silently — one wall-clock read, one unseeded random draw,
// one range over a Go map in the simulation core — so this package turns
// the conventions into machine-checked rules.
//
// Six analyzers ship:
//
//   - determinism: no wall-clock time, no global math/rand, no goroutines,
//     selects, or channel operations, and no unsorted map iteration inside
//     the simulation core.
//   - exhaustive-enum: every switch over a typed-const enum covers all
//     constants or has an explicit default that panics.
//   - cycle-math: no floating-point values flowing into cycle accounting
//     outside the statistics/reporting packages.
//   - panic-hygiene: panics carry constant, package-prefixed messages
//     (diagnosable invariant reports), and recover never hides one.
//   - exporteddoc: every exported identifier in the audited packages
//     (Config.DocPaths) carries a doc comment mentioning it, and each
//     package has a package overview — the doc comments are where those
//     packages' determinism contracts are stated.
//   - hotalloc: whole-program allocation analysis. A CHA-style call graph
//     rooted at //swex:hotpath annotations computes which functions run
//     per simulated event; every allocation site inside them (new, make,
//     composite literals, append, interface boxing, closures, string
//     building, channel ops) is reported and ratcheted against the
//     committed lint-baseline.json so hot-path garbage only shrinks.
//
// A violating line can be suppressed with an escape hatch comment naming
// the analyzer and a reason:
//
//	//lint:allow determinism(worker-pool handoff; results are merged by task index)
//
// placed on the offending line or the line above it. An empty reason is
// rejected by the comment parser, so every suppression is documented.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one rule violation at a source position.
type Diagnostic struct {
	// Pos locates the violating expression or statement.
	Pos token.Position
	// Analyzer names the rule family that reported the violation.
	Analyzer string
	// Message states the violation in one line.
	Message string
	// Suppressed marks a violation silenced by a //lint:allow comment.
	// Run drops suppressed diagnostics; RunAll keeps them so machine
	// consumers (swexlint -json) can report the allow-state.
	Suppressed bool
}

// String renders the diagnostic in file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer checks one package against one rule family.
type Analyzer interface {
	// Name is the identifier used in diagnostics and allow comments.
	Name() string
	// Check returns the rule violations found in pkg.
	Check(cfg *Config, pkg *Package) []Diagnostic
}

// ModuleAnalyzer is an Analyzer that additionally needs the whole module
// at once — the hotalloc rule builds a cross-package call graph, so
// per-package Check cannot see its reachability roots. Run detects the
// interface and calls CheckModule once over the full package list
// instead of Check per package.
type ModuleAnalyzer interface {
	Analyzer
	// CheckModule returns the rule violations found across all packages.
	CheckModule(cfg *Config, pkgs []*Package) []Diagnostic
}

// Config scopes the analyzers to the packages each rule governs.
type Config struct {
	// CorePaths lists the import paths (exact, or prefixes of
	// sub-packages) forming the deterministic simulation core. The
	// determinism, cycle-math, and panic-hygiene rules apply only there.
	CorePaths []string
	// FloatExemptPaths lists packages where floating-point cycle math is
	// legitimate (statistics and report formatting).
	FloatExemptPaths []string
	// EnumModules lists import-path prefixes whose named integer types
	// are treated as closed enums by the exhaustive-enum rule.
	EnumModules []string
	// CycleType is the fully-qualified name of the cycle-valued type
	// ("swex/internal/sim.Cycle").
	CycleType string
	// DocPaths lists the packages held to the exporteddoc bar: the ones
	// whose exported surface embodies a determinism contract that lives
	// in doc comments. A subset of CorePaths.
	DocPaths []string
	// HotReportPaths lists the packages whose hot-reachable allocation
	// sites the hotalloc rule reports. Reachability is computed over every
	// analyzed package; this only scopes where diagnostics are emitted.
	HotReportPaths []string
	// Baseline, when non-nil, is the hotalloc ratchet: sites within the
	// baselined per-key counts are tolerated, anything beyond fails.
	// Nil reports every site (the -write-baseline scan mode).
	Baseline *Baseline
}

// DefaultConfig returns the production scoping for this repository.
func DefaultConfig() *Config {
	return &Config{
		CorePaths: []string{
			"swex/internal/sim",
			"swex/internal/mesh",
			"swex/internal/proc",
			"swex/internal/cache",
			"swex/internal/dir",
			"swex/internal/proto",
			"swex/internal/ext",
			"swex/internal/machine",
			"swex/internal/mc",
			"swex/internal/memtier",
			"swex/internal/trace",
			"swex/internal/sweep",
			"swex/internal/litmus",
		},
		FloatExemptPaths: []string{
			"swex/internal/stats",
			"swex/internal/report",
		},
		EnumModules: []string{"swex"},
		CycleType:   "swex/internal/sim.Cycle",
		DocPaths: []string{
			"swex/internal/lint",
			"swex/internal/litmus",
			"swex/internal/mc",
			"swex/internal/memtier",
			"swex/internal/sim",
			"swex/internal/sweep",
			"swex/internal/trace",
		},
		HotReportPaths: []string{
			"swex/internal/sim",
			"swex/internal/mesh",
			"swex/internal/proc",
			"swex/internal/cache",
			"swex/internal/dir",
			"swex/internal/proto",
			"swex/internal/ext",
			"swex/internal/machine",
		},
	}
}

// IsCore reports whether the package path belongs to the simulation core.
func (c *Config) IsCore(path string) bool { return matchAny(c.CorePaths, path) }

// IsFloatExempt reports whether the package may do float cycle math.
func (c *Config) IsFloatExempt(path string) bool { return matchAny(c.FloatExemptPaths, path) }

// IsEnumModule reports whether types from this package are closed enums.
func (c *Config) IsEnumModule(path string) bool { return matchAny(c.EnumModules, path) }

func matchAny(prefixes []string, path string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Analyzers returns the full analyzer suite in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{
		Determinism{},
		ExhaustiveEnum{},
		CycleMath{},
		PanicHygiene{},
		ExportedDoc{},
		HotAlloc{},
	}
}

// AnalyzersByName resolves a comma-separated analyzer list ("determinism,
// cycle-math"); an empty list selects the full suite.
func AnalyzersByName(names string) ([]Analyzer, error) {
	all := Analyzers()
	if strings.TrimSpace(names) == "" {
		return all, nil
	}
	byName := make(map[string]Analyzer, len(all))
	for _, a := range all {
		byName[a.Name()] = a
	}
	var out []Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to every package, drops diagnostics suppressed
// by allow comments, and returns the rest sorted by position. Analyzers
// that implement ModuleAnalyzer run once over the full package list.
func Run(cfg *Config, pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	all := RunAll(cfg, pkgs, analyzers)
	out := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// RunAll is Run without dropping suppressions: silenced diagnostics are
// kept with Suppressed set, so machine consumers can report allow-state.
func RunAll(cfg *Config, pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	allowFor := make(map[string]allowSet, len(pkgs))
	for _, p := range pkgs {
		for _, f := range p.Files {
			pos := p.Fset.Position(f.Package)
			allowFor[pos.Filename] = p.allows
		}
	}
	mark := func(name string, d *Diagnostic) {
		if set, ok := allowFor[d.Pos.Filename]; ok {
			d.Suppressed = set.suppressed(name, d.Pos)
		}
	}
	var out []Diagnostic
	for _, a := range analyzers {
		if ma, ok := a.(ModuleAnalyzer); ok {
			for _, d := range ma.CheckModule(cfg, pkgs) {
				mark(a.Name(), &d)
				out = append(out, d)
			}
			continue
		}
		for _, p := range pkgs {
			for _, d := range a.Check(cfg, p) {
				mark(a.Name(), &d)
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// ---------------------------------------------------------- allow comments

// allowSet records //lint:allow suppressions by file and line.
type allowSet map[string]map[int][]string // filename -> line -> analyzer names

var allowRE = regexp.MustCompile(`^//\s*lint:allow\s+([a-z-]+)\(([^)]+)\)\s*$`)

// collectAllows scans every comment for the escape hatch syntax. The
// reason inside the parentheses is mandatory; a bare "//lint:allow
// determinism()" does not suppress anything.
func collectAllows(fset *token.FileSet, files []*ast.File) allowSet {
	set := make(allowSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					continue
				}
				pos := fset.Position(c.Slash)
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					set[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], m[1])
			}
		}
	}
	return set
}

// suppressed reports whether an allow comment for the analyzer sits on the
// diagnostic's line or the line directly above it.
func (s allowSet) suppressed(analyzer string, pos token.Position) bool {
	byLine := s[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range byLine[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}
