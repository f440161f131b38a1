// Package analysis is the openwfvet suite: go/analysis analyzers that
// encode this repository's project invariants, runnable via
// `go vet -vettool=$(go env GOPATH)/bin/openwfvet ./...` (or any built
// cmd/openwfvet binary). The tests build cmd/openwfvet and run it the same
// way, over the fixtures under testdata/src, internal/clock and the whole
// tree.
//
// The invariants, and the analyzer that pins each one:
//
//   - clockcheck: determinism requires every clock read to flow through
//     the injected clock.Clock. Direct time.Now/Sleep/After/AfterFunc/
//     NewTimer/NewTicker/Tick/Since calls are forbidden outside
//     internal/clock, main packages, and test files.
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
// Adding a new analyzer: write the run function in its own file here,
// append it to Analyzers(), give it a fixture package under
// testdata/src/<name> with `// want "regexp"` expectations, add a test
// calling vet on that directory and the name to TestAnalyzersRegistered's
// list (suite_test.go). DESIGN.md §12 documents the suite.
package analysis
