package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// Protokind pins wire-codec exhaustiveness. The codec registers each
// proto.Body implementation at up to four sites, and a type forgotten
// at any one of them fails silently (an undecodable frame, a
// differential test that never draws the new body, …):
//
//  1. the kind tag constant block (kindFragmentQuery, kindAward, …) —
//     every body type T needs a constant named kindT, and every kindT
//     constant needs its type;
//  2. the encoder's body type switch ((*encoder).body);
//  3. the decoder — some method with receiver decoder must construct T;
//  4. the randBody differential-test arms — when the unit under
//     analysis contains randBody (the in-package test variant does),
//     it must construct T.
//
// The analyzer activates only in a package that declares an interface
// named Body with a Kind() string method (internal/proto, and its
// fixture mirrors); each site is checked only when the package
// contains it, so the non-test unit skips randBody.
var Protokind = &analysis.Analyzer{
	Name: "protokind",
	Doc: "cross-check proto body types against the kind constants, the encoder body switch, " +
		"the decoder construction sites, and the randBody differential arms",
	Run: runProtokind,
}

func runProtokind(pass *analysis.Pass) (interface{}, error) {
	iface := bodyInterface(pass.Pkg)
	if iface == nil {
		return nil, nil
	}

	// Every concrete package-level type implementing Body, by name.
	scope := pass.Pkg.Scope()
	bodies := make(map[string]*types.TypeName)
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		t := tn.Type()
		if types.IsInterface(t) {
			continue
		}
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			bodies[name] = tn
		}
	}
	if len(bodies) == 0 {
		return nil, nil
	}

	// Site 1: kind tag constants.
	kinds := make(map[string]*types.Const)
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if suffix, ok := cutKindPrefix(name); ok && suffix != "Invalid" {
			kinds[suffix] = c
		}
	}

	// Sites 2–4 live in the AST.
	var encoderCases map[string]bool // nil until the encoder switch is found
	decoderMakes := make(map[string]bool)
	decoderSeen := false
	var randBodyMakes map[string]bool // nil when randBody absent from this unit
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			recv := receiverTypeName(fd)
			switch {
			case recv == "encoder" && fd.Name.Name == "body":
				if cases := typeSwitchCases(pass, fd.Body); cases != nil {
					encoderCases = cases
				}
			case recv == "decoder":
				decoderSeen = true
				collectConstructions(pass, fd.Body, bodies, decoderMakes)
			case recv == "" && fd.Name.Name == "randBody":
				if randBodyMakes == nil {
					randBodyMakes = make(map[string]bool)
				}
				collectConstructions(pass, fd.Body, bodies, randBodyMakes)
			}
		}
	}

	for name, tn := range bodies {
		if len(kinds) > 0 {
			if _, ok := kinds[name]; !ok {
				pass.Reportf(tn.Pos(), "proto body type %s has no kind tag constant kind%s", name, name)
			}
		}
		if encoderCases != nil && !encoderCases[name] {
			pass.Reportf(tn.Pos(), "proto body type %s missing from the (*encoder).body type switch", name)
		}
		if decoderSeen && !decoderMakes[name] {
			pass.Reportf(tn.Pos(), "proto body type %s is never constructed by any decoder method", name)
		}
		if randBodyMakes != nil && !randBodyMakes[name] {
			pass.Reportf(tn.Pos(), "proto body type %s missing from the randBody differential arms", name)
		}
	}
	for suffix, c := range kinds {
		if _, ok := bodies[suffix]; !ok {
			pass.Reportf(c.Pos(), "kind tag constant kind%s has no matching proto body type %s", suffix, suffix)
		}
	}
	return nil, nil
}

// bodyInterface returns the package's Body interface when it declares
// one with a Kind() string method, else nil.
func bodyInterface(pkg *types.Package) *types.Interface {
	tn, ok := pkg.Scope().Lookup("Body").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if m.Name() != "Kind" {
			continue
		}
		sig := m.Signature()
		if sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
			types.Identical(sig.Results().At(0).Type(), types.Typ[types.String]) {
			return iface
		}
	}
	return nil
}

// cutKindPrefix splits "kindFragmentQuery" → ("FragmentQuery", true);
// the character after "kind" must be upper case so identifiers like
// "kindred" do not match.
func cutKindPrefix(name string) (string, bool) {
	const p = "kind"
	if len(name) <= len(p) || name[:len(p)] != p {
		return "", false
	}
	c := name[len(p)]
	if c < 'A' || c > 'Z' {
		return "", false
	}
	return name[len(p):], true
}

// receiverTypeName returns the name of fd's receiver base type, or "".
func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// typeSwitchCases returns the named types listed as cases of the first
// type switch in body, or nil when body contains none.
func typeSwitchCases(pass *analysis.Pass, body *ast.BlockStmt) map[string]bool {
	var cases map[string]bool
	ast.Inspect(body, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSwitchStmt)
		if !ok || cases != nil {
			return cases == nil
		}
		cases = make(map[string]bool)
		for _, stmt := range ts.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, expr := range cc.List {
				if name := namedTypeName(pass, pass.TypesInfo.TypeOf(expr)); name != "" {
					cases[name] = true
				}
			}
		}
		return false
	})
	return cases
}

// collectConstructions records into out every body type that fn's body
// constructs: composite literals (T{…}, &T{…}) and declared variables
// (`var a AwardAck`) both count — decoders build some bodies field by
// field from a zero value.
func collectConstructions(pass *analysis.Pass, body *ast.BlockStmt, bodies map[string]*types.TypeName, out map[string]bool) {
	record := func(t types.Type) {
		if name := namedTypeName(pass, t); name != "" {
			if _, ok := bodies[name]; ok {
				out[name] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			record(pass.TypesInfo.TypeOf(n))
		case *ast.ValueSpec:
			if n.Type != nil {
				record(pass.TypesInfo.TypeOf(n.Type))
			}
		}
		return true
	})
}

// namedTypeName returns the name of t's named type (through one
// pointer), when that type is declared in the package under analysis.
func namedTypeName(pass *analysis.Pass, t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() != pass.Pkg {
		return ""
	}
	return obj.Name()
}
