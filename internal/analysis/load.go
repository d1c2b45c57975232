package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	Path  string // import path ("repro/internal/attack")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module with
// nothing but the standard library: module-local imports are resolved
// by mapping the module path onto directories under the module root
// and type-checking them recursively (with memoisation); standard
// library imports go through go/importer's source importer. One Loader
// shares one FileSet and one cache, so a whole axvet run type-checks
// each package exactly once.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*Package
	checking map[string]bool
}

// NewLoader roots a loader at the module directory, reading the module
// path from go.mod.
func NewLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		checking:   map[string]bool{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load expands the patterns (./..., ./internal/..., ./cmd/axvet, …)
// into package directories under the module root, then parses and
// type-checks each. Directories named testdata, hidden directories,
// and directories without non-test .go files are skipped during
// wildcard expansion; explicitly named directories are loaded as
// given, which is how the analyzer tests load their fixtures.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(rest, "./")))
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./"))))
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// importPath maps an absolute directory under the module root to its
// import path.
func (l *Loader) importPath(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// dirFor inverts importPath for module-local packages.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// loadDir parses and type-checks the package in dir (non-test files
// only, honoring build constraints for the current GOOS/GOARCH).
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPath(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// MatchFile honors both //go:build lines and _GOOS/_GOARCH
		// file-name suffixes, so one of a gemm_amd64.go/gemm_noasm.go
		// style pair is picked and the package type-checks without
		// duplicate symbols.
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-local packages load through
// the loader itself, everything else (the standard library) through
// the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
