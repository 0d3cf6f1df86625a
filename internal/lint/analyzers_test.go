package lint_test

import (
	"testing"

	"smtfetch/internal/lint"
	"smtfetch/internal/lint/linttest"
)

// Each analyzer must both flag the violating fixtures and stay quiet on
// the idiomatic patterns sitting next to them; the `// want` comments in
// testdata encode both sides.

func TestPoolOwn(t *testing.T) {
	linttest.Run(t, "testdata/poolown", lint.PoolOwn, "consumer")
}

func TestDeterminism(t *testing.T) {
	linttest.Run(t, "testdata/determinism", lint.Determinism,
		"smtfetch/internal/core", "smtfetch/internal/snap", "other")
}

func TestZeroAlloc(t *testing.T) {
	linttest.Run(t, "testdata/zeroalloc", lint.ZeroAlloc,
		"smtfetch/internal/core")
}

func TestStateCov(t *testing.T) {
	linttest.Run(t, "testdata/statecov", lint.StateCov,
		"smtfetch/internal/core")
}

func TestKeyCov(t *testing.T) {
	linttest.Run(t, "testdata/keycov", lint.KeyCov,
		"smtfetch/internal/experiment", "smtfetch/internal/config")
}
