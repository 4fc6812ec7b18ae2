// Command swexlint runs the repository's static-analysis suite: the
// determinism, exhaustive-enum, cycle-math, panic-hygiene and exporteddoc
// rules that back the simulator's reproducibility contract (see
// internal/lint and the "Determinism contract" section of DESIGN.md).
//
// Usage:
//
//	swexlint [-analyzers list] [packages]
//
// Packages are module-relative directories ("./internal/dir") or the
// recursive pattern "./...". With no arguments the whole module is
// analyzed. The exit status is 0 when the tree is clean, 1 when any
// diagnostic is reported, and 2 on a usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"swex/internal/lint"
)

func main() {
	analyzers := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: swexlint [-analyzers list] [./... | ./pkg/dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	as, err := lint.AnalyzersByName(*analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "swexlint:", err)
		os.Exit(2)
	}
	root, modPath, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "swexlint:", err)
		os.Exit(2)
	}
	loader := lint.NewLoader(root, modPath)

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*lint.Package
	for _, pat := range patterns {
		loaded, err := load(loader, cwd, pat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swexlint:", err)
			os.Exit(2)
		}
		pkgs = append(pkgs, loaded...)
	}

	diags := lint.Run(lint.DefaultConfig(), pkgs, as)
	for _, d := range diags {
		name := d.Pos.Filename
		if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
			name = r
		}
		fmt.Printf("%s:%d:%d: %s: %s\n", name, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "swexlint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}

// load resolves one command-line pattern to packages.
func load(loader *lint.Loader, cwd, pat string) ([]*lint.Package, error) {
	if pat == "./..." || pat == "..." {
		return loader.LoadModule()
	}
	dir := pat
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(cwd, dir)
	}
	rel, err := filepath.Rel(loader.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("package %s is outside module %s", pat, loader.ModulePath)
	}
	imp := loader.ModulePath
	if rel != "." {
		imp = loader.ModulePath + "/" + filepath.ToSlash(rel)
	}
	p, err := loader.Load(dir, imp)
	if err != nil {
		return nil, err
	}
	return []*lint.Package{p}, nil
}
