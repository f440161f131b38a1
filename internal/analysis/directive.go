package analysis

import (
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Directive verbs. A directive is a comment of the form
// `//openwf:<verb> <reason>` (no space between `//` and `openwf:`,
// matching the //go: directive convention). It covers the source line
// it ends on and the line immediately below it, so both trailing
// same-line comments and a standalone comment above the statement work.
const (
	// AllowWallclock exempts one line from clockcheck: a genuine
	// wall-time measurement (elapsed-time reporting, leak-check
	// deadlines) that must not be virtualized.
	AllowWallclock = "allow-wallclock"
	// AllowBackground exempts one line from ctxcheck's root-context
	// rule: a deliberate lifecycle root or a best-effort send that
	// must outlive the request context that triggered it.
	AllowBackground = "allow-background"
)

// directive is one parsed //openwf: comment.
type directive struct {
	verb   string
	reason string
	pos    token.Pos
}

// directiveIndex maps file name → line → directives covering that line.
type directiveIndex map[string]map[int][]directive

// parseDirectives indexes every //openwf: directive in the pass by the
// lines it covers. Directives with an unknown verb or a missing reason
// are reported immediately: a bare escape hatch with no justification
// is itself a violation.
func parseDirectives(pass *analysis.Pass, verbs ...string) directiveIndex {
	known := make(map[string]bool, len(verbs))
	for _, v := range verbs {
		known[v] = true
	}
	idx := make(directiveIndex)
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//openwf:")
				if !ok {
					continue
				}
				verb, reason, _ := strings.Cut(text, " ")
				if !known[verb] {
					// Another analyzer's verb (or a typo); only the
					// analyzer that owns a verb validates it, so a
					// directive never draws duplicate diagnostics.
					continue
				}
				d := directive{verb: verb, reason: strings.TrimSpace(reason), pos: c.Pos()}
				if d.reason == "" {
					pass.Reportf(c.Pos(), "//openwf:%s directive requires a reason", verb)
				}
				p := pass.Fset.Position(c.End())
				lines := idx[p.Filename]
				if lines == nil {
					lines = make(map[int][]directive)
					idx[p.Filename] = lines
				}
				lines[p.Line] = append(lines[p.Line], d)
				lines[p.Line+1] = append(lines[p.Line+1], d)
			}
		}
	}
	return idx
}

// allows reports whether a directive with the given verb covers pos.
func (idx directiveIndex) allows(pass *analysis.Pass, pos token.Pos, verb string) bool {
	p := pass.Fset.Position(pos)
	for _, d := range idx[p.Filename][p.Line] {
		if d.verb == verb {
			return true
		}
	}
	return false
}

// isTestFile reports whether pos lies in a _test.go file.
func isTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// isMain reports whether the package under analysis is a main package:
// entry points own their roots (wall clock, context.Background), so the
// injection rules stop there.
func isMain(pass *analysis.Pass) bool {
	return pass.Pkg.Name() == "main"
}
