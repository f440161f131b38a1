package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// wallClockFuncs are the package time functions that read or schedule
// against the wall clock. Each has a clock.Clock counterpart (or, for
// the constructors, an AfterFunc-based equivalent); calling them
// directly desynchronizes the component from the injected clock and
// silently breaks chaos replay and the daemon soak.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
	"Since":     true,
}

// Clockcheck reports direct wall-clock use outside internal/clock, main
// packages, and tests.
var Clockcheck = &analysis.Analyzer{
	Name: "clockcheck",
	Doc: "forbid direct time.Now/Sleep/After/… outside internal/clock, cmd/, examples/, and tests; " +
		"inject clock.Clock instead, or annotate a genuine wall-time read with //openwf:allow-wallclock <reason>",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runClockcheck,
}

func runClockcheck(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() == "openwf/internal/clock" || mainOrTooling(pass) {
		return nil, nil
	}
	dirs := parseDirectives(pass, AllowWallclock)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		sel := n.(*ast.SelectorExpr)
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !wallClockFuncs[fn.Name()] {
			return
		}
		if fn.Signature().Recv() != nil { // a method like (*Timer).Stop, not the package func
			return
		}
		if isTestFile(pass, sel.Pos()) || dirs.allows(pass, sel.Pos(), AllowWallclock) {
			return
		}
		pass.Reportf(sel.Pos(),
			"direct call to time.%s: inject clock.Clock (or annotate //openwf:allow-wallclock <reason>)",
			fn.Name())
	})
	return nil, nil
}
