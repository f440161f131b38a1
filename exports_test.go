package openwf_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// callerAllowlist names the exported functions under internal/ that no
// product file calls and that stay anyway, each with the tests that need
// it. A key is the package's path below internal/, then the receiver's
// type for a method, then the name.
var callerAllowlist = map[string]string{
	// Faults, injected by the chaos and robustness tests.
	"community.Community.CrashHost":       "directory_chaos_test crashes a member between sweeps",
	"community.Community.ScheduleFaults":  "the chaos matrix, residue_test and seam_test script crashes and partitions on the simulated clock",
	"transport/inmem.Network.SetLinkLoss": "residue_test, seam_test, handoff_test and faults_test lose the frames of one link",

	// Simulated time, which the tests drive.
	"clock.Sim.Advance":        "the community, host, engine, auction, schedule, service, discovery, daemon and inmem tests move simulated time forward",
	"clock.Sim.AdvanceTo":      "Advance's body; exec_test steps to an absolute window start",
	"clock.Sim.PendingWaiters": "exec, host, service, daemon, inmem and community routes tests wait for a goroutine to park on the clock before advancing it",

	// Residue: what a finished or failed session leaves behind.
	"schedule.Manager.HeldTasks": "chaos_test, stress_test, auction_test and the schedule model tests check that no hold outlives its session",
	"exec.Manager.Pending":       "exec_test, host_test and residue_test check that no run is left registered",

	// Churn: a member withdrawing what it offered.
	"service.Manager.Unregister": "directory_chaos_test, routes_test, auction_test, host_test and service_test withdraw a service",
	"fragment.Manager.Remove":    "TestRemove withdraws a fragment, the knowhow half of churn",

	// The bounded event ring, until the per-workflow recorder (ROADMAP)
	// takes it over.
	"trace.NewBuffer":        "the community and host tests record a run's messages into a ring",
	"trace.Buffer.Events":    "the community and host tests read the messages a run recorded",
	"trace.Buffer.Total":     "chaos_test and trace_test count what the ring saw, overwritten events included",
	"trace.Buffer.CountKind": "roundtrip_test, community_test and routes_test count the messages of one kind",
	"trace.Buffer.WriteTo":   "trace_test dumps the ring as text",
}

// TestExportsHaveCallers: every exported function or method declared in a
// non-test file under internal/ is used by another non-test Go file of the
// repository — cmd/ (the benchmark module in cmd/openwfbench/ included),
// examples/, the facade, another internal/ file — or by the root
// bench_test.go figures (DESIGN.md §21: a caller or gone). A function only
// tests call is a block no product composes, so it goes, or it is in
// callerAllowlist with the tests that need it. An allowlist entry that a
// product file calls, or that is gone, fails too.
//
// The test type-checks every package from source, so a call counts for the
// function it resolves to, not for every function of that name, and a call
// through an interface for the method of each of the repository's types
// that implements it. Outside the check: internal/testutil, which is test
// support, and the methods of the standard interfaces Error, String and
// Unwrap.
func TestExportsHaveCallers(t *testing.T) {
	uncalled := exportsWithoutCallers(t, ".")
	for _, k := range slices.Sorted(maps.Keys(uncalled)) {
		if _, ok := callerAllowlist[k]; !ok {
			t.Errorf("%s: exported %s has no caller outside tests; delete it, or add it to callerAllowlist with the tests that need it", uncalled[k], k)
		}
	}
	for _, k := range slices.Sorted(maps.Keys(callerAllowlist)) {
		if _, ok := uncalled[k]; !ok {
			t.Errorf("callerAllowlist names %s, which is gone or has a product caller now; drop the entry", k)
		}
	}
}

// srcPkg is one package's files as the build would compile them.
type srcPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// exportsWithoutCallers returns each exported function under root's
// internal/ that no other caller file uses, keyed as callerAllowlist is,
// with its position.
func exportsWithoutCallers(t *testing.T, root string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*srcPkg{} // by import path
	external := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (name == "vendor" || name == "testdata" || name == "bench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		rel := filepath.ToSlash(mustRel(t, root, p))
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") && rel != "bench_test.go" {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("openwf", path.Dir(rel))
		if strings.HasSuffix(f.Name.Name, "_test") {
			ip += "_test"
		}
		if pkgs[ip] == nil {
			pkgs[ip] = &srcPkg{}
		}
		pkgs[ip].files = append(pkgs[ip].files, f)
		for _, im := range f.Imports {
			if q := strings.Trim(im.Path.Value, `"`); !isOwn(q) {
				external[q] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The packages outside the repository come from their export data,
	// which one go list names.
	exports := map[string]string{}
	if len(external) > 0 {
		cmd := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, slices.Sorted(maps.Keys(external))...)...)
		cmd.Dir = root
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list -export: %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if ip, file, ok := strings.Cut(line, "\t"); ok {
				exports[ip] = file
			}
		}
	}
	gc := importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		return os.Open(exports[ip])
	})
	var check func(ip string) *types.Package
	imp := importerFunc(func(ip string) (*types.Package, error) {
		if isOwn(ip) {
			return check(ip), nil
		}
		return gc.Import(ip)
	})
	check = func(ip string) *types.Package {
		p := pkgs[ip]
		if p == nil {
			t.Fatalf("no source for %s", ip)
		}
		if p.types != nil {
			return p.types
		}
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		if strings.HasSuffix(ip, "_test") {
			// bench_test.go alone leans on helpers of the other root
			// tests; what it does resolve is what counts.
			conf.Error = func(error) {}
		}
		tp, err := conf.Check(ip, fset, p.files, p.info)
		if err != nil && conf.Error == nil {
			t.Fatalf("type-checking %s: %v", ip, err)
		}
		p.types = tp
		return tp
	}
	for _, ip := range slices.Sorted(maps.Keys(pkgs)) {
		check(ip)
	}

	// A use counts from a caller file other than the one that declares
	// what it uses; a call through an interface, for the method that each
	// of the repository's types implementing the interface would run.
	used := map[*types.Func]bool{}
	viaInterface := map[*types.Func]bool{}
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || !isCaller(t, root, fset.Position(id.Pos()).Filename) {
				continue
			}
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				viaInterface[fn] = true
			} else if fset.Position(fn.Pos()).Filename != fset.Position(id.Pos()).Filename {
				used[fn.Origin()] = true
			}
		}
	}
	for _, p := range pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for m := range viaInterface {
				iface := m.Signature().Recv().Type().Underlying().(*types.Interface)
				if !types.Implements(ptr, iface) {
					continue
				}
				if fn, ok := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name()).Obj().(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
		}
	}

	uncalled := map[string]string{}
	for ip, p := range pkgs {
		rel, ok := strings.CutPrefix(ip, "openwf/internal/")
		if !ok || rel == "testutil" {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				switch fd.Name.Name {
				case "Error", "String", "Unwrap":
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				key := rel + "."
				if recv := fn.Signature().Recv(); recv != nil {
					key += recvName(recv.Type()) + "."
				}
				if !used[fn] {
					uncalled[key+fn.Name()] = fset.Position(fd.Pos()).String()
				}
			}
		}
	}
	return uncalled
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(ip string) (*types.Package, error) { return f(ip) }

func isOwn(ip string) bool { return ip == "openwf" || strings.HasPrefix(ip, "openwf/") }

// isCaller reports whether a use in file counts: any non-test file but the
// test support, and the root bench_test.go.
func isCaller(t *testing.T, root, file string) bool {
	rel := filepath.ToSlash(mustRel(t, root, file))
	if strings.HasPrefix(rel, "internal/testutil/") {
		return false
	}
	return !strings.HasSuffix(rel, "_test.go") || rel == "bench_test.go"
}

func recvName(typ types.Type) string {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	return typ.(*types.Named).Obj().Name()
}

func mustRel(t *testing.T, root, p string) string {
	rel, err := filepath.Rel(root, p)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}
