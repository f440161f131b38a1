package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Ctxcheck pins the cancellation-threading invariant: a
// context.Context parameter is always the first parameter (so every
// blocking API reads `f(ctx, …)` and callers cannot forget to thread
// it), and no code outside main packages and tests mints a fresh root
// context — context.Background()/context.TODO() sever the caller's
// cancellation, so each such root must be a justified lifecycle
// decision annotated //openwf:allow-background <reason>.
var Ctxcheck = &analysis.Analyzer{
	Name: "ctxcheck",
	Doc: "require context.Context to be the first parameter and forbid context.Background/TODO " +
		"outside main packages and tests (escape hatch: //openwf:allow-background <reason>)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runCtxcheck,
}

func runCtxcheck(pass *analysis.Pass) (interface{}, error) {
	dirs := parseDirectives(pass, AllowBackground)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	nodes := []ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil), (*ast.SelectorExpr)(nil)}
	ins.Preorder(nodes, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkCtxFirst(pass, n.Type)
		case *ast.FuncLit:
			checkCtxFirst(pass, n.Type)
		case *ast.SelectorExpr:
			fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return
			}
			if name := fn.Name(); name != "Background" && name != "TODO" {
				return
			}
			if isMain(pass) || isTestFile(pass, n.Pos()) ||
				dirs.allows(pass, n.Pos(), AllowBackground) {
				return
			}
			pass.Reportf(n.Pos(),
				"context.%s severs the caller's cancellation: thread the caller's ctx (or annotate //openwf:allow-background <reason>)",
				fn.Name())
		}
	})
	return nil, nil
}

// checkCtxFirst reports a context.Context parameter that is not the
// function's first parameter.
func checkCtxFirst(pass *analysis.Pass, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	seen := 0 // parameters before the current field
	for i, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass, field.Type) && (i > 0 || seen > 0) {
			pass.Reportf(field.Pos(), "context.Context must be the first parameter")
		}
		seen += n
	}
}

func isContextType(pass *analysis.Pass, expr ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(expr)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
