// Package lint is a small, stdlib-only static-analysis framework that
// encodes the repository's load-bearing invariants: deterministic
// (wall-clock- and map-order-independent) simulation results, an
// allocation-free steady-state kernel, consistent sync/atomic usage,
// telemetry handle/emission discipline, no silently dropped errors,
// and the state-coverage family — snapshot codecs serialize and
// restore every field, measurement stats reset at the warmup
// boundary, and content keys see every behavior-affecting config
// field. It is built on go/ast, go/parser, go/types and go/build
// only — no module dependencies — and is driven by cmd/catchlint.
//
// An analyzer inspects one typechecked package at a time through a
// Pass and reports Diagnostics; analyzers that need whole-module state
// (the state-coverage family via its shared stateEngine) accumulate it
// across passes and report from their End hook. Packages load and analyze in parallel; output order is
// deterministic regardless of scheduling.
//
// The state-coverage analyzers read facts the code cannot express
// through //catch:<marker> <reason> annotations (nosnap, noreset,
// keyneutral, stats, keyfn, hotpath — see anno.go); every exemption
// is re-verified each run and reported stale when the gap it excuses
// has closed. Findings can be suppressed, one line and one analyzer
// at a time, with
//
//	//catchlint:ignore <analyzer> <reason>
//
// placed on the offending line or alone on the line above it. A
// directive that suppresses nothing is itself reported as stale, so
// suppressions cannot outlive the code they excuse.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
)

// Diagnostic is one finding, attributed to the analyzer that produced
// it and anchored to a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the diagnostic vet-style: file:line:col: message [analyzer].
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Finding is the machine-readable form of a Diagnostic, stable for
// -json output and CI annotation.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// Finding converts the diagnostic to its machine-readable form.
func (d Diagnostic) Finding() Finding {
	return Finding{
		Analyzer: d.Analyzer,
		File:     d.Pos.Filename,
		Line:     d.Pos.Line,
		Col:      d.Pos.Column,
		Message:  d.Message,
	}
}

// Analyzer is one named check. Run is invoked once per package; End,
// when non-nil, is invoked once after every package has been visited
// (for analyzers that correlate facts across packages).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	End  func(report func(Diagnostic))
}

// Pass hands one typechecked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string // import path
	Dir      string // package directory
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run loads every package under the module rooted at root, applies
// the analyzers, resolves //catchlint:ignore suppressions (reporting
// stale or malformed ones) and returns the surviving diagnostics in
// deterministic file/line order. A non-nil error means the module
// could not be loaded or typechecked — not that findings exist.
func Run(root string, analyzers []*Analyzer) ([]Diagnostic, error) {
	ld, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := ld.loadModule()
	if err != nil {
		return nil, err
	}
	return RunPackages(ld.fset, pkgs, analyzers)
}

// RunPackages applies the analyzers to already-loaded packages. It is
// the test seam: fixtures load a single package and run a focused
// analyzer set over it.
//
// Analysis fans out across packages on GOMAXPROCS workers. Analyzers
// carry per-run state (module-wide fact tables), so each analyzer is
// serialized behind its own lock: analyzer A can visit package 1 while
// analyzer B visits package 2, but A never sees two packages at once.
// End hooks run sequentially after every package pass has finished,
// and the final position sort makes the output order independent of
// goroutine scheduling.
func RunPackages(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var mu sync.Mutex
	var diags []Diagnostic
	report := func(d Diagnostic) {
		mu.Lock()
		diags = append(diags, d)
		mu.Unlock()
	}

	locks := make([]sync.Mutex, len(analyzers))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, pkg := range pkgs {
		wg.Add(1)
		go func(pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for i, a := range analyzers {
				if a.Run == nil {
					continue
				}
				locks[i].Lock()
				a.Run(&Pass{
					Analyzer: a,
					Fset:     fset,
					Files:    pkg.Files,
					Path:     pkg.Path,
					Dir:      pkg.Dir,
					Pkg:      pkg.Types,
					Info:     pkg.Info,
					report:   report,
				})
				locks[i].Unlock()
			}
		}(pkg)
	}
	wg.Wait()

	for _, a := range analyzers {
		if a.End != nil {
			a.End(report)
		}
	}

	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	diags = applyIgnores(fset, pkgs, diags, known)

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}
