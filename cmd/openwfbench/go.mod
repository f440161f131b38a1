// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the root module's `go build ./...` and
// `go test ./...`. The module path sits under the root module's, which is
// what lets it import openwf/internal/...; the replace points at the
// checkout it is run from.
module openwf/cmd/openwfbench

go 1.24

require openwf v0.0.0

replace openwf => ../..
