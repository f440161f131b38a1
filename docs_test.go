package openwf_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citation matches "DESIGN.md §N" and "MEASUREMENTS.md §N". One right
// after a quote mark (" or `) quotes an old line or the form itself rather
// than cites a section, and is left out.
var citation = regexp.MustCompile("(?:^|[^`\"])\\b(DESIGN|MEASUREMENTS)\\.md §([0-9]+)")

// TestDocCitationsResolve: every numbered citation of DESIGN.md or
// MEASUREMENTS.md in the repository's Go, Markdown and YAML files names a
// "## N." heading of the file it cites. The change logs — CHANGES.md and
// the per-change runs under bench/ — are records of their time and are
// not checked, nor are vendor/ and .git.
func TestDocCitationsResolve(t *testing.T) {
	heading := regexp.MustCompile(`(?m)^## ([0-9]+)\.`)
	headings := map[string]map[string]bool{}
	for _, doc := range []string{"DESIGN", "MEASUREMENTS"} {
		b, err := os.ReadFile(doc + ".md")
		if err != nil {
			t.Fatal(err)
		}
		headings[doc] = map[string]bool{}
		for _, m := range heading.FindAllSubmatch(b, -1) {
			headings[doc][string(m[1])] = true
		}
	}
	cited := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "vendor" || name == "bench" || name == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".md", ".yml":
		default:
			return nil
		}
		if path == "CHANGES.md" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range citation.FindAllStringSubmatch(line, -1) {
				cited++
				if !headings[m[1]][m[2]] {
					t.Errorf("%s:%d cites %s.md §%s, which has no \"## %s.\" heading", path, i+1, m[1], m[2], m[2])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("found no citations at all; is the test running from the repository root?")
	}
}
