package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismConfig scopes the determinism analyzer to the
// result-producing packages and exempts files that are deliberate,
// audited sources of controlled randomness.
type DeterminismConfig struct {
	// Packages lists the import paths whose output feeds simulation
	// results and therefore must be bit-reproducible.
	Packages []string
	// AllowFiles holds slash-separated path suffixes exempt from all
	// determinism checks (the seeded PRNG implementation itself).
	AllowFiles []string
}

// DefaultDeterminismConfig covers every package whose computation
// lands in a Result, table or golden figure. internal/runner and
// internal/telemetry are deliberately out of scope: engine timing,
// uptime and trace timestamps are legitimately wall-clock-based.
// internal/fault IS in scope even though it never touches a Result:
// its whole contract is that fault schedules, breaker transitions and
// backoff jitter replay identically from a seed, which a stray
// time.Now or global rand call would silently break.
// internal/cluster is in scope for the same reason: shard assembly,
// ring ownership and steal reclaim all must replay identically, and
// the few wall-clock reads it legitimately needs (peer-call latency
// observation) carry explicit catchlint:ignore audits.
// internal/sample is in scope because its whole output is a Result:
// interval profiling, feature extraction, the seeded k-means
// clustering and the stratified extrapolation must all be
// bit-reproducible for a given (config, workload, spec) key, and the
// snapshot images it stores are content-addressed by that same
// determinism.
func DefaultDeterminismConfig() DeterminismConfig {
	return DeterminismConfig{
		Packages: []string{
			"catch",
			"catch/internal/cache",
			"catch/internal/cluster",
			"catch/internal/config",
			"catch/internal/core",
			"catch/internal/cpu",
			"catch/internal/criticality",
			"catch/internal/experiments",
			"catch/internal/fault",
			"catch/internal/interconnect",
			"catch/internal/memo",
			"catch/internal/memory",
			"catch/internal/power",
			"catch/internal/prefetch",
			"catch/internal/sample",
			"catch/internal/stats",
			"catch/internal/tact",
			"catch/internal/trace",
			"catch/internal/workloads",
		},
		AllowFiles: []string{"internal/trace/rng.go"},
	}
}

// allowedRandConstructors are the math/rand functions that build a
// locally-seeded generator rather than touching the global one.
var allowedRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// NewDeterminism builds the determinism analyzer: inside the scoped
// packages it forbids wall-clock reads (time.Now, time.Since), global
// math/rand state, and ranging over maps (whose iteration order is
// deliberately randomized by the runtime). The one allowed map-range
// shape is the collect-keys idiom — a single-statement body appending
// the range key to a slice — because the caller sorts the collected
// keys before use; every other map range must either be rewritten
// over sorted keys or carry a //catchlint:ignore with a reason why
// its order cannot reach a result.
func NewDeterminism(cfg DeterminismConfig) *Analyzer {
	inScope := make(map[string]bool, len(cfg.Packages))
	for _, p := range cfg.Packages {
		inScope[p] = true
	}
	a := &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock reads, global math/rand and unsorted map iteration in result-producing packages",
	}
	a.Run = func(pass *Pass) {
		if !inScope[pass.Path] {
			return
		}
		for _, f := range pass.Files {
			name := pass.Fset.Position(f.Pos()).Filename
			if allowedFile(name, cfg.AllowFiles) {
				continue
			}
			checkDeterminism(pass, f)
		}
	}
	return a
}

func allowedFile(filename string, suffixes []string) bool {
	slashed := strings.ReplaceAll(filename, "\\", "/")
	for _, s := range suffixes {
		if strings.HasSuffix(slashed, s) {
			return true
		}
	}
	return false
}

func checkDeterminism(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			obj := pass.Info.Uses[n.Sel]
			fn, ok := obj.(*types.Func)
			if !ok {
				return true
			}
			switch pkgPathOf(fn) {
			case "time":
				if fn.Name() == "Now" || fn.Name() == "Since" {
					pass.Reportf(n.Pos(), "time.%s in a result-producing package: simulation output must not depend on wall-clock time", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if fn.Type().(*types.Signature).Recv() == nil && !allowedRandConstructors[fn.Name()] {
					pass.Reportf(n.Pos(), "global math/rand.%s in a result-producing package: use the seeded internal/trace RNG (or an explicitly seeded *rand.Rand)", fn.Name())
				}
			}
		case *ast.RangeStmt:
			tv, ok := pass.Info.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if isCollectKeysLoop(pass.Info, n) {
				return true
			}
			pass.Reportf(n.Pos(), "range over a map in a result-producing package: iteration order is nondeterministic; iterate over sorted keys instead")
		}
		return true
	})
}

// isCollectKeysLoop matches `for k := range m { s = append(s, k) }`,
// the idiom that gathers keys for sorting: order-insensitive because
// only the (sorted-later) key set escapes the loop.
func isCollectKeysLoop(info *types.Info, rng *ast.RangeStmt) bool {
	if rng.Value != nil || rng.Body == nil || len(rng.Body.List) != 1 {
		return false
	}
	keyIdent, ok := rng.Key.(*ast.Ident)
	if !ok {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Rhs) != 1 || len(asg.Lhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fun.Name != "append" {
		return false
	} else if b, ok := info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	return ok && info.Uses[arg] == info.Defs[keyIdent]
}
