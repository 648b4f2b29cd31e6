package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// NewKeyCoverage builds the analyzer that proves content keys see
// every behavior-affecting field. Key-derivation functions are marked
// //catch:keyfn (Job.Key, ConfigFingerprint). For each keyfn:
//
//   - every struct type passed to json.Marshal is walked recursively:
//     an unexported field or a json:"-" field is invisible to the
//     canonical JSON and therefore absent from the key — a finding
//     unless annotated //catch:keyneutral <reason>; a keyneutral on a
//     field that does marshal is stale;
//   - every named-module-struct parameter NOT passed to Marshal must
//     have each of its fields selected somewhere in the function body
//     (the Sprintf-style keys), or be annotated keyneutral.
//
// A backstop catches unannotated key derivations: a function that
// hashes (sha256.Sum256 or snap.Fnv1a) the output of json.Marshal, or
// sha256-hashes with spec structs in scope, must carry //catch:keyfn
// so its inputs stay checked as they grow.
func NewKeyCoverage(eng *stateEngine) *Analyzer {
	a := &Analyzer{
		Name: "key-coverage",
		Doc:  "every field of key/spec structs flows into the content key derived by //catch:keyfn functions, or carries //catch:keyneutral <reason>",
	}
	a.Run = func(pass *Pass) { eng.collect(pass) }
	a.End = func(report func(Diagnostic)) {
		c := &keyChecker{eng: eng, report: report, consumed: make(map[*anno]bool)}
		c.check()
	}
	return a
}

type keyChecker struct {
	eng      *stateEngine
	report   func(Diagnostic)
	consumed map[*anno]bool
}

func (c *keyChecker) reportf(pos token.Pos, format string, args ...any) {
	c.report(Diagnostic{
		Analyzer: "key-coverage",
		Pos:      c.eng.fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

func (c *keyChecker) check() {
	for _, ff := range c.eng.sortedFuncs() {
		if an := ff.anno["keyfn"]; an != nil {
			c.consumed[an] = true
			c.checkKeyfn(ff, an)
			continue
		}
		c.backstop(ff)
	}
	c.staleKeyneutral()
}

// checkKeyfn verifies one key-derivation function's inputs.
func (c *keyChecker) checkKeyfn(ff *funcFacts, an *anno) {
	visited := make(map[*types.TypeName]bool)
	marshaled := make(map[*types.TypeName]bool)
	for _, mt := range ff.marshals {
		for _, tn := range c.eng.containedStructs(mt) {
			marshaled[tn] = true
			c.jsonWalk(ff, tn, visited)
		}
	}
	sig, ok := ff.obj.Type().(*types.Signature)
	if !ok {
		return
	}
	checkedAny := len(marshaled) > 0
	for i := 0; i < sig.Params().Len(); i++ {
		tn := namedStructOf(sig.Params().At(i).Type())
		if tn == nil || c.eng.structs[tn] == nil || isSnapPkg(tn.Pkg()) || marshaled[tn] {
			continue
		}
		checkedAny = true
		c.selectWalk(ff, tn)
	}
	if !checkedAny {
		c.reportf(an.pos, "stale //catch:keyfn on %s: no spec-struct parameters and no json.Marshal calls to check", funcDisplayName(ff.obj))
	}
}

// jsonWalk checks one struct type reached by a canonical-JSON key:
// every field must be visible to encoding/json or be declared
// key-neutral.
func (c *keyChecker) jsonWalk(ff *funcFacts, tn *types.TypeName, visited map[*types.TypeName]bool) {
	if visited[tn] || isSnapPkg(tn.Pkg()) {
		return
	}
	visited[tn] = true
	sf := c.eng.structs[tn]
	if sf == nil {
		return
	}
	for i, fv := range sf.fields {
		an := sf.anno(fv, "keyneutral")
		if an != nil {
			c.consumed[an] = true
		}
		if isFuncField(fv.Type()) {
			continue
		}
		tag := jsonTagName(sf.st.Tag(i))
		switch {
		case !fv.Exported() && !fv.Embedded():
			if an == nil {
				c.reportf(fv.Pos(), "unexported field %s is invisible to the canonical JSON in %s and so absent from the content key (export it or annotate //catch:keyneutral <reason>)",
					fieldName(tn, fv), funcDisplayName(ff.obj))
			}
			continue
		case tag == "-":
			if an == nil {
				c.reportf(fv.Pos(), "field %s is tagged json:\"-\" and so absent from the content key derived by %s (drop the tag or annotate //catch:keyneutral <reason>)",
					fieldName(tn, fv), funcDisplayName(ff.obj))
			}
			continue
		}
		if an != nil {
			c.reportf(an.pos, "stale //catch:keyneutral on %s: the field marshals into the canonical-JSON key",
				fieldName(tn, fv))
		}
		for _, ct := range c.eng.containedStructs(fv.Type()) {
			c.jsonWalk(ff, ct, visited)
		}
	}
}

// selectWalk checks a spec struct handed to a keyfn by parameter:
// every field must be selected in the function body (flow into the
// Sprintf/hash) or be declared key-neutral.
func (c *keyChecker) selectWalk(ff *funcFacts, tn *types.TypeName) {
	sf := c.eng.structs[tn]
	for _, fv := range sf.fields {
		an := sf.anno(fv, "keyneutral")
		if an != nil {
			c.consumed[an] = true
		}
		if isFuncField(fv.Type()) {
			continue
		}
		if ff.sel[fv] {
			if an != nil {
				c.reportf(an.pos, "stale //catch:keyneutral on %s: the field flows into the key derived by %s",
					fieldName(tn, fv), funcDisplayName(ff.obj))
			}
			continue
		}
		if an == nil {
			c.reportf(fv.Pos(), "field %s does not flow into the content key derived by %s (use it or annotate //catch:keyneutral <reason>)",
				fieldName(tn, fv), funcDisplayName(ff.obj))
		}
	}
}

// backstop flags unannotated functions that look like key derivations.
func (c *keyChecker) backstop(ff *funcFacts) {
	if isSnapPkg(ff.obj.Pkg()) {
		return
	}
	hashesJSON := (ff.callsSha || ff.callsFnv) && len(ff.marshals) > 0
	hashesSpec := ff.callsSha && c.hasStructParamOrRecv(ff)
	if hashesJSON || hashesSpec {
		c.reportf(ff.decl.Pos(), "%s hashes spec data into what looks like a content key; annotate //catch:keyfn so key-coverage can check its inputs",
			funcDisplayName(ff.obj))
	}
}

func (c *keyChecker) hasStructParamOrRecv(ff *funcFacts) bool {
	sig, ok := ff.obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := receiverStruct(ff.obj); recv != nil && c.eng.structs[recv] != nil {
		return true
	}
	for i := 0; i < sig.Params().Len(); i++ {
		tn := namedStructOf(sig.Params().At(i).Type())
		if tn != nil && c.eng.structs[tn] != nil && !isSnapPkg(tn.Pkg()) {
			return true
		}
	}
	return false
}

// staleKeyneutral reports keyneutral annotations no keyfn ever
// consulted — the annotated type is not part of any key.
func (c *keyChecker) staleKeyneutral() {
	for _, sf := range c.eng.sortedStructs() {
		for _, fv := range sf.fields {
			an := sf.anno(fv, "keyneutral")
			if an == nil || c.consumed[an] {
				continue
			}
			c.reportf(an.pos, "stale //catch:keyneutral on %s: %s is not examined by any //catch:keyfn function",
				fieldName(sf.obj, fv), qualified(sf.obj))
		}
	}
}

// jsonTagName extracts the json name component of a struct tag.
func jsonTagName(tag string) string {
	v := reflect.StructTag(tag).Get("json")
	if i := strings.IndexByte(v, ','); i >= 0 {
		v = v[:i]
	}
	return v
}
