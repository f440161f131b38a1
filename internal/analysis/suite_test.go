package analysis_test

import (
	"testing"

	"openwf/internal/analysis"
	"openwf/internal/analysis/analyzertest"
)

func TestClockcheckFixture(t *testing.T) {
	analyzertest.Run(t, analysis.Clockcheck, "clockfixture")
}

func TestClockcheckSkipsClockPackage(t *testing.T) {
	// The same violating source analyzed under the internal/clock
	// package path must produce nothing: the clock abstraction is the
	// one place allowed to touch package time.
	analyzertest.Run(t, analysis.Clockcheck, "clockexempt",
		analyzertest.WithPkgPath("openwf/internal/clock"))
}

func TestSeedcheckFixture(t *testing.T) {
	analyzertest.Run(t, analysis.Seedcheck, "seedfixture")
}

func TestCtxcheckFixture(t *testing.T) {
	analyzertest.Run(t, analysis.Ctxcheck, "ctxfixture")
}

func TestCtxcheckSkipsCmd(t *testing.T) {
	// Root contexts are an entry point's prerogative: the same source
	// under a cmd/ path draws no context.Background diagnostics.
	analyzertest.Run(t, analysis.Ctxcheck, "ctxexempt",
		analyzertest.WithPkgPath("openwf/cmd/openwfd"))
}

func TestDepcheckForbidsXToolsInInternal(t *testing.T) {
	analyzertest.Run(t, analysis.Depcheck, "depfixture",
		analyzertest.WithPkgPath("openwf/internal/transport"))
}

func TestDepcheckAllowsAnalysisSubtree(t *testing.T) {
	analyzertest.Run(t, analysis.Depcheck, "depfixtureok",
		analyzertest.WithPkgPath("openwf/internal/analysis/sub"))
}

func TestDepcheckIgnoresNonInternal(t *testing.T) {
	analyzertest.Run(t, analysis.Depcheck, "depfixtureok",
		analyzertest.WithPkgPath("openwf/cmd/openwfvet"))
}

func TestAnalyzersRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, a := range analysis.Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %q incompletely declared", a.Name)
		}
		if names[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"clockcheck", "seedcheck", "ctxcheck", "depcheck"} {
		if !names[want] {
			t.Fatalf("suite is missing analyzer %q", want)
		}
	}
}
