package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each analyzer runs over its expectation-comment fixtures: the test
// fails if a want goes unmatched (the analyzer regressed and stopped
// seeing a seeded violation) or an unexpected diagnostic appears (the
// analyzer started flagging legitimate idioms).

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.Determinism,
		"detfix/internal/sim", "detfix/outofscope")
}

func TestCtxProp(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.CtxProp,
		"ctxfix/dep", "ctxfix/use")
}

func TestErrWrap(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.ErrWrap,
		"errfix/internal/budget", "errfix/use")
}

func TestZeroSentinel(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.ZeroSentinel, "zerofix")
}

func TestFloatEq(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.FloatEq,
		"floatfix", "floatfix/internal/ucache")
}

func TestGoroleak(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.Goroleak,
		"goroleakfix", "goroleakfix/mainprog")
}

func TestLockFlow(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.LockFlow, "lockflowfix")
}

func TestFsyncOrder(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.FsyncOrder,
		"fsyncfix/internal/journal", "fsyncfix/internal/jobs", "fsyncfix/outofscope")
}

func TestPoolNoNest(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.PoolNoNest,
		"poolfix/internal/par", "poolfix/use")
}

func TestIgnoreDirectivesSuppress(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.FloatEq, "ignorefix")
}

func TestRegistryNamesAreUniqueAndKnown(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analysis.Registry() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely declared", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if !analysis.KnownCheck(a.Name) {
			t.Errorf("KnownCheck(%q) = false for a registered analyzer", a.Name)
		}
	}
	if analysis.KnownCheck("nonsuch") {
		t.Error(`KnownCheck("nonsuch") = true`)
	}
}
