package lint

import (
	"go/ast"
	"go/types"
)

// NewAtomicConsistency builds the atomic-consistency analyzer: no code
// uses a sync/atomic package function (atomic.AddUint64(&x.f, 1),
// atomic.LoadInt64, ...). The location such a function updates is an
// ordinary variable that any other line may read or write plainly, a
// data race the race detector only catches if a test happens to
// interleave it. The typed values (atomic.Uint64, atomic.Int64,
// atomic.Bool, ...) keep their state unexported, so every access goes
// through a method and none can be plain.
func NewAtomicConsistency() *Analyzer {
	a := &Analyzer{
		Name: "atomic-consistency",
		Doc:  "no sync/atomic functions: use the typed atomics, whose values cannot be accessed plainly",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := pass.Info.Uses[id].(*types.Func)
				if ok && pkgPathOf(fn) == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
					pass.Reportf(id.Pos(), "atomic.%s is a sync/atomic function: use a typed atomic (atomic.Uint64 and kin), whose value cannot be read or written plainly", fn.Name())
				}
				return true
			})
		}
	}
	return a
}
