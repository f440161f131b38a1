// Package analysis is the openwfvet suite: go/analysis analyzers that
// encode this repository's project invariants, runnable via
// `go vet -vettool=$(go env GOPATH)/bin/openwfvet ./...` (or any built
// cmd/openwfvet binary) and exercised by fixture tests under
// testdata/src.
//
// The invariants, and the analyzer that pins each one:
//
//   - clockcheck: determinism requires every clock read to flow through
//     the injected clock.Clock. Direct time.Now/Sleep/After/AfterFunc/
//     NewTimer/NewTicker/Tick/Since calls are forbidden outside
//     internal/clock, main packages (cmd/, examples/), and test files.
//     Genuine wall-time measurement is granted case by case with an
//     `//openwf:allow-wallclock <reason>` line directive.
//
//   - seedcheck: reproducibility requires every random draw to come
//     from a seeded, threaded *rand.Rand. The global top-level
//     math/rand functions (rand.Intn, rand.Shuffle, …) are forbidden
//     everywhere, including tests; only the constructors (rand.New,
//     rand.NewSource, rand.NewZipf) are allowed.
//
//   - ctxcheck: cancellation must thread through the API. A
//     context.Context parameter must be the first parameter of its
//     function, and fresh root contexts (context.Background/TODO) are
//     forbidden outside main packages and tests unless annotated
//     `//openwf:allow-background <reason>` (lifecycle roots and
//     detached best-effort sends are the legitimate uses).
//
//   - depcheck: the golang.org/x/tools dependency is tool/test-scoped.
//     No non-test file of a package under internal/ outside
//     internal/analysis may import it, keeping the runtime import
//     graph dependency-free.
//
// Adding a new analyzer: write the run function in its own file here,
// append it to Analyzers(), give it fixtures under testdata/src/<name>
// with `// want "regexp"` expectations, and add a test calling
// analyzertest.Run. DESIGN.md §12 documents the suite.
package analysis
