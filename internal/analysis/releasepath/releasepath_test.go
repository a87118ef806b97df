package releasepath_test

import (
	"testing"

	"valois/internal/analysis/analysistest"
	"valois/internal/analysis/releasepath"
)

func TestReleasePath(t *testing.T) {
	analysistest.Run(t, "testdata", releasepath.Analyzer, "a")
	// The deleted saferead analyzer's fixture, shared with refbalance's
	// test: every line it flagged is still flagged by one of the two.
	analysistest.Run(t, "testdata", releasepath.Analyzer, "saferead")
}
