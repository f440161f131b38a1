package analysis_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestToolsDependencyStaysToolScoped asserts the x/tools scoping rule
// directly from source: no non-test file outside internal/analysis and
// cmd/openwfvet imports golang.org/x/tools, whether under internal/,
// cmd/, examples/ or the module root.
func TestToolsDependencyStaysToolScoped(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			switch rel {
			case "vendor", ".git", "internal/analysis", "cmd/openwfvet":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "golang.org/x/tools") {
				t.Errorf("%s imports %s: the analyzer toolchain dependency is scoped to internal/analysis and cmd/openwfvet",
					rel, imp.Path.Value)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
