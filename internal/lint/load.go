package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package bundles one parsed and type-checked Go package: the facts layer
// every analyzer works from. Later passes (for example a protocol
// state-space model checker) are expected to reuse this loader rather than
// growing their own.
type Package struct {
	// Path is the import path ("swex/internal/dir").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Fset is the shared file set; positions in Files and Info resolve
	// through it.
	Fset *token.FileSet
	// Files holds the parsed non-test sources in file-name order.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries expression types, definitions, and uses.
	Info *types.Info
	// TypeErrors collects type-checker complaints. The loader tolerates
	// them (a package that fails to resolve a stdlib symbol can still be
	// analyzed syntactically); callers that need a fully-typed tree can
	// inspect this.
	TypeErrors []error

	allows allowSet
}

// Loader parses and type-checks packages of one module using only the
// standard library: go/parser for syntax, go/types for semantics, and the
// go/importer source importer for standard-library dependencies.
// Module-internal imports are resolved against the module root, so the
// loader never consults GOPATH, a build cache, or the network.
type Loader struct {
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module's import path prefix ("swex").
	ModulePath string

	pkgs    map[string]*Package
	loading map[string]bool
	std     types.Importer
}

// NewLoader returns a loader for the module rooted at moduleRoot.
func NewLoader(moduleRoot, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: moduleRoot,
		ModulePath: modulePath,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		std:        importer.ForCompiler(fset, "source", nil),
	}
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod and returns its path and the module path declared there.
func FindModuleRoot(dir string) (root, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer: module-internal paths load from source
// under the module root; everything else is delegated to the stdlib source
// importer. An unresolvable import degrades to an empty placeholder package
// so analysis can proceed on partial type information.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		p, err := l.Load(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		// Degrade gracefully: hand back an empty, complete package so the
		// type checker records invalid types for its symbols instead of
		// aborting the whole package.
		ph := types.NewPackage(path, filepath.Base(path))
		ph.MarkComplete()
		return ph, nil
	}
	return pkg, nil
}

// Load parses and type-checks the package in dir under the given import
// path, caching the result. Test files (_test.go) are excluded: the
// determinism contract governs the simulator, not its test harnesses.
func (l *Loader) Load(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	var terrs []error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)

	p := &Package{
		Path:       path,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		TypeErrors: terrs,
	}
	p.allows = collectAllows(l.Fset, files)
	l.pkgs[path] = p
	return p, nil
}

// LoadModule loads every non-test package under the module root, skipping
// testdata, vendor, hidden directories, and directories without Go files.
// Packages are returned in import-path order.
func (l *Loader) LoadModule() ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		names, gerr := goSources(path)
		if gerr != nil || len(names) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(l.ModuleRoot, path)
		if rerr != nil {
			return rerr
		}
		imp := l.ModulePath
		if rel != "." {
			imp = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		p, lerr := l.Load(path, imp)
		if lerr != nil {
			return lerr
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// goSources lists the non-test Go files of dir in name order.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
