package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// stateEngine is the shared field-reachability fact base behind the
// three state-coverage analyzers (snapshot-coverage, reset-coverage,
// key-coverage). It records, for every package it sees: the declared
// struct types with their fields and //catch: annotations, and every
// function with its static call edges, field selections, whole-struct
// composite assignments, composite-literal field writes and
// hash/marshal call markers. Each analyzer draws its own closure and
// coverage judgment from this one collection, so the three stay
// consistent about what "a field is touched here" means.
//
// The engine is concurrency-safe: analyzer Run hooks may collect
// packages from parallel driver goroutines; the first analyzer to see
// a package collects it and the rest find it cached.
type stateEngine struct {
	mu        sync.Mutex
	collected map[string]bool

	fset    *token.FileSet
	structs map[*types.TypeName]*structFacts
	funcs   map[*types.Func]*funcFacts
}

// structFacts is one declared struct type plus its annotations.
type structFacts struct {
	obj       *types.TypeName
	st        *types.Struct
	fields    []*types.Var
	fieldAnno map[*types.Var]map[string]*anno
	typeAnno  map[string]*anno
}

// funcFacts is the per-function slice of the fact base.
type funcFacts struct {
	obj  *types.Func
	decl *ast.FuncDecl
	anno map[string]*anno

	calls []*types.Func       // statically resolved callees
	sel   map[*types.Var]bool // struct fields selected anywhere in the body

	// compositeAssign records named struct types T for which the body
	// contains an assignment `lhs = T{...}` (token.ASSIGN only — a
	// short variable declaration constructs, it does not reset).
	compositeAssign map[*types.TypeName]bool
	// litField records fields initialized by composite literals
	// anywhere in the body (keyed elements by name; positional
	// elements by index).
	litField map[*types.Var]bool

	marshals []types.Type // argument types passed to json.Marshal
	// structCalls records each call handed a named struct (or a pointer
	// to one), with those argument types. Key-coverage resolves which
	// callees are //catch:keyenc encoders once every package is in.
	structCalls []structCall
	callsSha    bool // calls crypto/sha256.Sum256
	callsFnv    bool // calls snap.Fnv1a
}

// structCall is one call and the argument types that lead to named
// structs.
type structCall struct {
	fn   *types.Func
	args []types.Type
}

func newStateEngine() *stateEngine {
	return &stateEngine{
		collected: make(map[string]bool),
		structs:   make(map[*types.TypeName]*structFacts),
		funcs:     make(map[*types.Func]*funcFacts),
	}
}

// collect ingests one typechecked package into the fact base.
func (e *stateEngine) collect(pass *Pass) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.collected[pass.Path] {
		return
	}
	e.collected[pass.Path] = true
	e.fset = pass.Fset

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					stAST, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					e.collectStruct(pass, d, ts, stAST)
				}
			case *ast.FuncDecl:
				e.collectFunc(pass, d)
			}
		}
	}
}

// collectStruct records one struct declaration: its types.Var fields
// in declaration order and the //catch: annotations attached to the
// type and to each field.
func (e *stateEngine) collectStruct(pass *Pass, gd *ast.GenDecl, ts *ast.TypeSpec, stAST *ast.StructType) {
	obj, ok := pass.Info.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	sf := &structFacts{
		obj:       obj,
		st:        st,
		fieldAnno: make(map[*types.Var]map[string]*anno),
		typeAnno:  annosOf(gd.Doc, ts.Doc, ts.Comment),
	}
	idx := 0
	for _, fd := range stAST.Fields.List {
		n := len(fd.Names)
		if n == 0 {
			n = 1 // embedded field
		}
		fa := annosOf(fd.Doc, fd.Comment)
		for k := 0; k < n && idx < st.NumFields(); k++ {
			fv := st.Field(idx)
			idx++
			sf.fields = append(sf.fields, fv)
			if fa != nil {
				sf.fieldAnno[fv] = fa
			}
		}
	}
	e.structs[obj] = sf
}

// collectFunc records one function body's facts.
func (e *stateEngine) collectFunc(pass *Pass, decl *ast.FuncDecl) {
	obj, ok := pass.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	ff := &funcFacts{
		obj:      obj,
		decl:     decl,
		anno:     annosOf(decl.Doc),
		sel:      make(map[*types.Var]bool),
		litField: make(map[*types.Var]bool),
	}
	e.funcs[obj] = ff
	if decl.Body == nil {
		return
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if fv, ok := sel.Obj().(*types.Var); ok {
					ff.sel[fv] = true
				}
			}
		case *ast.CompositeLit:
			e.collectComposite(pass, ff, x)
		case *ast.AssignStmt:
			if x.Tok != token.ASSIGN {
				break
			}
			for _, rhs := range x.Rhs {
				cl, ok := ast.Unparen(rhs).(*ast.CompositeLit)
				if !ok {
					continue
				}
				if tn := namedStructOf(pass.Info.TypeOf(cl)); tn != nil {
					if ff.compositeAssign == nil {
						ff.compositeAssign = make(map[*types.TypeName]bool)
					}
					ff.compositeAssign[tn] = true
				}
			}
		case *ast.CallExpr:
			e.collectCall(pass, ff, x)
		}
		return true
	})
}

// collectComposite records which struct fields a composite literal
// initializes (for the restore-side "reconstructed via constructor"
// coverage).
func (e *stateEngine) collectComposite(pass *Pass, ff *funcFacts, cl *ast.CompositeLit) {
	tn := namedStructOf(pass.Info.TypeOf(cl))
	if tn == nil {
		return
	}
	st := tn.Type().Underlying().(*types.Struct)
	for i, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				if fv, ok := pass.Info.Uses[id].(*types.Var); ok {
					ff.litField[fv] = true
				}
			}
			continue
		}
		if i < st.NumFields() {
			ff.litField[st.Field(i)] = true
		}
	}
}

// collectCall records call-graph edges, the struct arguments of each
// call, and the hash/marshal markers key-coverage keys off.
func (e *stateEngine) collectCall(pass *Pass, ff *funcFacts, call *ast.CallExpr) {
	obj := calleeObj(pass.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok {
		return
	}
	ff.calls = append(ff.calls, fn)
	var structArgs []types.Type
	for _, arg := range call.Args {
		if t := pass.Info.TypeOf(arg); namedStructOf(t) != nil {
			structArgs = append(structArgs, t)
		}
	}
	if structArgs != nil {
		ff.structCalls = append(ff.structCalls, structCall{fn: fn.Origin(), args: structArgs})
	}
	switch {
	case fn.Name() == "Marshal" && pkgPathOf(fn) == "encoding/json":
		if len(call.Args) > 0 {
			if t := pass.Info.TypeOf(call.Args[0]); t != nil {
				ff.marshals = append(ff.marshals, t)
			}
		}
	case fn.Name() == "Sum256" && pkgPathOf(fn) == "crypto/sha256":
		ff.callsSha = true
	case fn.Name() == "Fnv1a" && fn.Pkg() != nil && fn.Pkg().Name() == "snap":
		ff.callsFnv = true
	}
}

// namedStructOf unwraps t to a named struct type's TypeName (through
// one pointer), or nil.
func namedStructOf(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named.Obj()
}

// isSnapPkg reports whether the type or function belongs to the snap
// codec package itself (the serialization substrate, not state).
func isSnapPkg(pkg *types.Package) bool {
	return pkg != nil && pkg.Name() == "snap"
}

// isSnapPtr reports whether t is *snap.Writer / *snap.Reader (by name:
// the fixture modules declare their own snap package).
func isSnapPtr(t types.Type, typeName string) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == typeName && isSnapPkg(named.Obj().Pkg())
}

// fieldAnnoOf returns the named annotation on field fv of struct sf.
func (sf *structFacts) anno(fv *types.Var, marker string) *anno {
	if m := sf.fieldAnno[fv]; m != nil {
		return m[marker]
	}
	return nil
}

// containedStructs returns the module struct TypeNames a field of type
// t leads to, unwrapping pointers, slices, arrays and map keys/values.
// Interfaces and functions contribute nothing: state behind an
// interface is covered by that type's own codec roots.
func (e *stateEngine) containedStructs(t types.Type) []*types.TypeName {
	var out []*types.TypeName
	seen := make(map[types.Type]bool)
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		if named, ok := t.(*types.Named); ok {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct {
				if e.structs[named.Obj()] != nil && !isSnapPkg(named.Obj().Pkg()) {
					out = append(out, named.Obj())
				}
				return
			}
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			walk(u.Elem())
		case *types.Slice:
			walk(u.Elem())
		case *types.Array:
			walk(u.Elem())
		case *types.Map:
			walk(u.Key())
			walk(u.Elem())
		}
	}
	walk(t)
	return out
}

// isFuncField reports whether a field's type is function-shaped
// (hooks and callbacks are wiring, not serializable state).
func isFuncField(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// hasMethod reports whether named type tn has a method with the given
// name (any receiver form).
func hasMethod(tn *types.TypeName, name string) bool {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if named.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// receiverStruct returns the TypeName of fn's receiver base type when
// it is a struct, else nil.
func receiverStruct(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedStructOf(sig.Recv().Type())
}

// qualified renders pkg.Type for diagnostics.
func qualified(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Name() + "." + tn.Name()
}

// fieldName renders pkg.Type.Field for diagnostics.
func fieldName(tn *types.TypeName, fv *types.Var) string {
	return qualified(tn) + "." + fv.Name()
}

// sortableName gives deterministic iteration order over struct facts.
func (sf *structFacts) sortKey() string {
	return sf.obj.Pkg().Path() + "." + sf.obj.Name()
}

// funcDisplayName renders a function or method name for diagnostics.
func funcDisplayName(fn *types.Func) string {
	if recv := receiverStruct(fn); recv != nil {
		return "(" + qualified(recv) + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// sortedStructs returns the engine's structs in deterministic order so
// End hooks report findings independent of collection order.
func (e *stateEngine) sortedStructs() []*structFacts {
	out := make([]*structFacts, 0, len(e.structs))
	for _, sf := range e.structs {
		out = append(out, sf)
	}
	keys := make(map[*structFacts]string, len(out))
	for _, sf := range out {
		keys[sf] = sf.sortKey()
	}
	sort.Slice(out, func(i, j int) bool { return keys[out[i]] < keys[out[j]] })
	return out
}

// sortedFuncs returns the engine's functions in deterministic order.
func (e *stateEngine) sortedFuncs() []*funcFacts {
	out := make([]*funcFacts, 0, len(e.funcs))
	for _, ff := range e.funcs {
		out = append(out, ff)
	}
	keys := make(map[*funcFacts]string, len(out))
	for _, ff := range out {
		p := ""
		if ff.obj.Pkg() != nil {
			p = ff.obj.Pkg().Path()
		}
		keys[ff] = p + "\x00" + funcDisplayName(ff.obj)
	}
	sort.Slice(out, func(i, j int) bool { return keys[out[i]] < keys[out[j]] })
	return out
}

// containsFold reports whether s contains sub, case-folded; sub must
// already be lower-case.
func containsFold(s, sub string) bool {
	return strings.Contains(strings.ToLower(s), sub)
}
