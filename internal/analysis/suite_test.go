package analysis_test

import (
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// vettool is the openwfvet binary TestMain builds from cmd/openwfvet: the
// tests below run the analyzers as go vet runs them, through the tool.
var vettool string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "openwfvet")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	vettool = filepath.Join(dir, "openwfvet")
	code := 1
	if out, err := exec.Command("go", "build", "-o", vettool, "openwf/cmd/openwfvet").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building openwfvet: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

var (
	// vetLine is one diagnostic as go vet prints it: file:line:col: message.
	vetLine = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: (.*)$`)
	// wantComment expects a diagnostic on its own line whose message
	// matches the regexp, written as a Go string or raw-string literal.
	wantComment = regexp.MustCompile(`// want (.+)$`)
)

// vet runs go vet -vettool=openwfvet over dir, a package directory relative
// to the module root, or "..." for the whole tree, and holds what it prints
// to the want comments of dir's own files: each diagnostic must match a want
// on its line, each want must be matched, and go vet may print nothing else
// but its "# package" headers.
func vet(t *testing.T, dir string) {
	t.Helper()
	root := repoRoot(t)
	// The wants by file:line; "..." names no directory, so it has none.
	// Glob fails only on a malformed pattern.
	wants := map[string][]*regexp.Regexp{}
	files, _ := filepath.Glob(filepath.Join(root, dir, "*.go"))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantComment.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pattern, err := strconv.Unquote(strings.TrimSpace(m[1]))
			if err != nil {
				t.Fatalf("%s:%d: malformed want %s: %v", f, i+1, m[1], err)
			}
			key := fmt.Sprintf("%s:%d", path.Join(dir, filepath.Base(f)), i+1)
			wants[key] = append(wants[key], regexp.MustCompile(pattern))
		}
	}

	cmd := exec.Command("go", "vet", "-vettool="+vettool, "./"+dir)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	reported := 0
	for _, line := range strings.Split(string(out), "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		m := vetLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("go vet printed %q", line)
			continue
		}
		reported++
		key := m[1] + ":" + m[2]
		i := slices.IndexFunc(wants[key], func(re *regexp.Regexp) bool { return re.MatchString(m[3]) })
		if i < 0 {
			t.Errorf("unexpected diagnostic: %s", line)
			continue
		}
		wants[key] = slices.Delete(wants[key], i, i+1)
	}
	for _, key := range slices.Sorted(maps.Keys(wants)) {
		for _, re := range wants[key] {
			t.Errorf("%s: no diagnostic matching %q", key, re)
		}
	}
	if (err != nil) != (reported > 0) {
		t.Errorf("go vet: %v after %d diagnostics\n%s", err, reported, out)
	}
}

func TestClockcheckFixture(t *testing.T) {
	vet(t, "internal/analysis/testdata/src/clockfixture")
}

func TestClockcheckSkipsClockPackage(t *testing.T) {
	// The clock abstraction is the one place allowed to touch package
	// time: internal/clock's Real calls time.Now, After, AfterFunc and
	// Since, and go vet reports none of them.
	vet(t, "internal/clock")
}

func TestSeedcheckFixture(t *testing.T) {
	vet(t, "internal/analysis/testdata/src/seedfixture")
}

func TestCtxcheckFixture(t *testing.T) {
	vet(t, "internal/analysis/testdata/src/ctxfixture")
}

func TestCtxcheckSkipsCmd(t *testing.T) {
	// Root contexts are an entry point's prerogative: a main package
	// draws no diagnostic for context.Background or TODO, but still one
	// for a context.Context that is not the first parameter.
	vet(t, "internal/analysis/testdata/src/ctxexempt")
}

// TestTreeVetsClean holds the whole module to the suite, as
// `go vet -vettool=bin/openwfvet ./...` does.
func TestTreeVetsClean(t *testing.T) {
	vet(t, "...")
}

// TestAnalyzersRegistered: the tool lists exactly the suite. One that
// registers an analyzer twice, or one with no Doc, stops before it lists
// anything.
func TestAnalyzersRegistered(t *testing.T) {
	out, err := exec.Command(vettool, "help").CombinedOutput()
	if err != nil {
		t.Fatalf("openwfvet help: %v\n%s", err, out)
	}
	_, list, _ := strings.Cut(string(out), "Registered analyzers:\n\n")
	list, _, _ = strings.Cut(list, "\n\n")
	var names []string
	for _, line := range strings.Split(list, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			names = append(names, f[0])
		}
	}
	if want := []string{"clockcheck", "ctxcheck", "seedcheck"}; !slices.Equal(names, want) {
		t.Errorf("openwfvet lists %v, want %v\n%s", names, want, out)
	}
}
