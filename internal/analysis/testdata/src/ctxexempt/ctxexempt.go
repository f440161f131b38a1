// Command ctxexempt mints root contexts, as an entry point may: ctxcheck
// leaves context.Background and TODO to main packages. The first-parameter
// rule still applies here.
package main

import "context"

func main() {
	run(context.Background(), "root")
	todo(0, context.TODO())
}

func run(ctx context.Context, name string) { _ = ctx; _ = name }

func todo(n int, ctx context.Context) { _ = n; _ = ctx } // want `context\.Context must be the first parameter`
