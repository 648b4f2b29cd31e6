package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, typechecked package of the module under
// analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// loader discovers, parses and typechecks the packages of a single
// module. Imports inside the module are resolved from the loader's own
// results; everything else (the standard library — the module has no
// external dependencies) is delegated to go/importer's source
// importer, which shares our FileSet. Each package is typechecked
// exactly once, so types.Object identities are stable across passes —
// the state-coverage engine relies on that to correlate fields between
// packages.
//
// Loading runs in two parallel phases. Directory scanning and parsing
// fan out freely (token.FileSet is internally synchronized; positions
// render as file:line:col, so FileSet base order does not affect
// output). Typechecking fans out in dependency order: each package
// first waits for its module-internal imports to finish, then takes a
// GOMAXPROCS slot — waiting before acquiring keeps a full semaphore of
// blocked dependents from deadlocking the pipeline. The source
// importer for the standard library is not safe for concurrent use and
// is serialized behind stdMu.
type loader struct {
	root       string
	modulePath string
	fset       *token.FileSet
	std        types.ImporterFrom
	stdMu      sync.Mutex

	mu   sync.Mutex
	pkgs map[string]*Package
}

func newLoader(root string) (*loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, errors.New("lint: source importer does not support ImportFrom")
	}
	return &loader{
		root:       abs,
		modulePath: modPath,
		fset:       fset,
		std:        std,
		pkgs:       make(map[string]*Package),
	}, nil
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %w (is %s a module root?)", err, root)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// scanned is one parsed-but-not-yet-typechecked package.
type scanned struct {
	path    string
	dir     string
	files   []*ast.File
	imports []string // module-internal imports only
}

// loadModule loads every Go package in the module and returns them
// sorted by import path.
func (ld *loader) loadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(ld.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != ld.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}

	scans, err := ld.scanAll(dirs)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*scanned, len(scans))
	for _, sc := range scans {
		byPath[sc.path] = sc
	}
	if err := checkAcyclic(byPath); err != nil {
		return nil, err
	}
	if err := ld.checkAll(scans, byPath); err != nil {
		return nil, err
	}

	pkgs := make([]*Package, 0, len(scans))
	for _, sc := range scans {
		pkgs = append(pkgs, ld.pkgs[sc.path])
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// scanAll imports and parses every package directory concurrently.
func (ld *loader) scanAll(dirs []string) ([]*scanned, error) {
	results := make([]*scanned, len(dirs))
	errs := make([]error, len(dirs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, dir := range dirs {
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = ld.scan(dir)
		}(i, dir)
	}
	wg.Wait()

	var out []*scanned
	var joined []error
	for i, sc := range results {
		if errs[i] != nil {
			var noGo *build.NoGoError
			if errors.As(errs[i], &noGo) {
				continue // directory without Go files
			}
			joined = append(joined, errs[i])
			continue
		}
		out = append(out, sc)
	}
	if len(joined) > 0 {
		return nil, errors.Join(joined...)
	}
	return out, nil
}

// scan imports and parses one package directory. Test files are
// excluded: the invariants the analyzers encode are about shipped
// simulator code, and error-hygiene explicitly scopes itself to
// non-test code.
func (ld *loader) scan(dir string) (*scanned, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	sc := &scanned{path: ld.importPathFor(dir), dir: dir}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		sc.files = append(sc.files, f)
	}
	for _, imp := range bp.Imports {
		if imp == ld.modulePath || strings.HasPrefix(imp, ld.modulePath+"/") {
			sc.imports = append(sc.imports, imp)
		}
	}
	return sc, nil
}

// checkAcyclic rejects module-internal import cycles up front — the
// dependency-ordered typecheck phase below would otherwise wait on
// them forever.
func checkAcyclic(byPath map[string]*scanned) error {
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[string]int, len(byPath))
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", path)
		case done:
			return nil
		}
		state[path] = visiting
		sc := byPath[path]
		if sc != nil {
			for _, imp := range sc.imports {
				if _, ok := byPath[imp]; !ok {
					continue
				}
				if err := visit(imp); err != nil {
					return err
				}
			}
		}
		state[path] = done
		return nil
	}
	for path := range byPath {
		if err := visit(path); err != nil {
			return err
		}
	}
	return nil
}

// errDepFailed marks packages skipped because a dependency failed; the
// dependency's own error is the one worth reporting.
var errDepFailed = errors.New("dependency failed")

// checkAll typechecks every scanned package, fanned out across
// GOMAXPROCS in dependency order.
func (ld *loader) checkAll(scans []*scanned, byPath map[string]*scanned) error {
	ready := make(map[string]chan struct{}, len(scans))
	for _, sc := range scans {
		ready[sc.path] = make(chan struct{})
	}
	errs := make([]error, len(scans))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, sc := range scans {
		wg.Add(1)
		go func(i int, sc *scanned) {
			defer wg.Done()
			defer close(ready[sc.path])
			// Wait for dependencies BEFORE taking a worker slot:
			// a blocked dependent must not occupy the semaphore its
			// dependency needs to make progress.
			failedDep := false
			for _, imp := range sc.imports {
				ch, ok := ready[imp]
				if !ok {
					continue
				}
				<-ch
				if ld.get(imp) == nil {
					failedDep = true
				}
			}
			if failedDep {
				errs[i] = errDepFailed
				return
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			pkg, err := ld.check(sc)
			if err != nil {
				errs[i] = err
				return
			}
			ld.put(pkg)
		}(i, sc)
	}
	wg.Wait()

	var joined []error
	for _, err := range errs {
		if err != nil && !errors.Is(err, errDepFailed) {
			joined = append(joined, err)
		}
	}
	return errors.Join(joined...)
}

func (ld *loader) get(path string) *Package {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	return ld.pkgs[path]
}

func (ld *loader) put(pkg *Package) {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	ld.pkgs[pkg.Path] = pkg
}

// check typechecks one package whose module-internal dependencies have
// already been checked.
func (ld *loader) check(sc *scanned) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if imp == ld.modulePath || strings.HasPrefix(imp, ld.modulePath+"/") {
				pkg := ld.get(imp)
				if pkg == nil {
					return nil, fmt.Errorf("lint: internal import %s not loaded", imp)
				}
				return pkg.Types, nil
			}
			ld.stdMu.Lock()
			defer ld.stdMu.Unlock()
			return ld.std.ImportFrom(imp, sc.dir, 0)
		}),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(sc.path, ld.fset, sc.files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: typecheck %s: %w", sc.path, errors.Join(typeErrs...))
	}
	return &Package{Path: sc.path, Dir: sc.dir, Files: sc.files, Types: tpkg, Info: info}, nil
}

// importPathFor maps a directory under the module root to its import
// path.
func (ld *loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil || rel == "." {
		return ld.modulePath
	}
	return ld.modulePath + "/" + filepath.ToSlash(rel)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
