package analysis

import "golang.org/x/tools/go/analysis"

// Analyzers returns the full openwfvet suite in stable order.
// cmd/openwfvet hands this to unitchecker; the tests run each member
// through that tool, over its fixtures and over the tree.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Clockcheck,
		Seedcheck,
		Ctxcheck,
	}
}
