package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //catch: annotation family marks facts the state-coverage
// analyzers cannot derive from the code alone. Each annotation is a
// single line comment
//
//	//catch:<marker> <reason>
//
// attached to the declaration it describes: trailing on the same line
// or in the doc comment directly above it. Markers that exempt a field
// from a completeness obligation (nosnap, noreset, keyneutral) require
// a reason; pure markers (hotpath, stats, keyfn, keyenc) do not. The
// annotation-hygiene analyzer rejects unknown markers and missing
// reasons, and each state-coverage analyzer reports annotations of its
// marker that have gone stale — an exemption must not outlive the gap
// it excuses.
const annoPrefix = "//catch:"

// annoSpec describes one legal annotation marker.
type annoSpec struct {
	needsReason bool
	doc         string
}

// annoSpecs is the registry of legal //catch: markers.
var annoSpecs = map[string]annoSpec{
	"hotpath":    {false, "function's steady state must not allocate (hotpath-noalloc)"},
	"nosnap":     {true, "field is deliberately absent from the snapshot codec (snapshot-coverage)"},
	"noreset":    {true, "stats field deliberately survives the warmup-boundary reset (reset-coverage)"},
	"keyneutral": {true, "field deliberately does not flow into a content key (key-coverage)"},
	"stats":      {false, "type opts into reset-coverage despite not being named *Stats"},
	"keyfn":      {false, "function derives a content key; key-coverage checks its inputs"},
	"keyenc":     {false, "function writes its arguments' canonical JSON; key-coverage walks them as json.Marshal arguments"},
}

// anno is one parsed //catch: annotation.
type anno struct {
	marker string
	reason string
	pos    token.Pos
}

// parseAnno extracts the annotation from a comment, or nil when the
// comment is not a //catch: directive. Malformed directives (unknown
// marker, missing mandatory reason) still parse — the hygiene analyzer
// owns rejecting them, and the coverage analyzers honor them so a
// half-written annotation does not double-report.
func parseAnno(c *ast.Comment) *anno {
	rest, ok := strings.CutPrefix(c.Text, annoPrefix)
	if !ok {
		return nil
	}
	marker, reason := rest, ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		marker, reason = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	return &anno{marker: marker, reason: reason, pos: c.Pos()}
}

// annosOf collects the annotations of one or two comment groups
// (typically a declaration's Doc and trailing Comment).
func annosOf(groups ...*ast.CommentGroup) map[string]*anno {
	var m map[string]*anno
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			a := parseAnno(c)
			if a == nil {
				continue
			}
			if m == nil {
				m = make(map[string]*anno)
			}
			m[a.marker] = a
		}
	}
	return m
}

// NewAnnotationHygiene builds the analyzer that validates the grammar
// of every //catch: annotation in a package: the marker must be one of
// the registered ones and exemption markers must carry a reason.
func NewAnnotationHygiene() *Analyzer {
	a := &Analyzer{
		Name: "annotation-hygiene",
		Doc:  "//catch: annotations use a known marker and carry a reason where one is mandatory",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					an := parseAnno(c)
					if an == nil {
						continue
					}
					spec, ok := annoSpecs[an.marker]
					if !ok {
						pass.Reportf(c.Pos(), "unknown annotation //catch:%s (known: %s)", an.marker, knownMarkers())
						continue
					}
					if spec.needsReason && an.reason == "" {
						pass.Reportf(c.Pos(), "//catch:%s requires a reason: //catch:%s <why>", an.marker, an.marker)
					}
				}
			}
		}
	}
	return a
}

// knownMarkers renders the registered markers in stable order.
func knownMarkers() string {
	names := make([]string, 0, len(annoSpecs))
	for name := range annoSpecs {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j-1] > names[j]; j-- {
			names[j-1], names[j] = names[j], names[j-1]
		}
	}
	return strings.Join(names, ", ")
}
