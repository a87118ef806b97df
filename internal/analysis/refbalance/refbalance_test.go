package refbalance_test

import (
	"testing"

	"valois/internal/analysis/analysistest"
	"valois/internal/analysis/refbalance"
)

func TestRefBalance(t *testing.T) {
	analysistest.Run(t, "testdata", refbalance.Analyzer, "a")
	// The deleted saferead analyzer's fixture: refbalance reports its
	// leaked, discarded and overwritten references, releasepath (which
	// houses the file) its exits and discarded guards.
	analysistest.Run(t, "../releasepath/testdata", refbalance.Analyzer, "saferead")
}
