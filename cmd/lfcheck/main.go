// Command lfcheck runs the lock-free invariant analyzers of
// internal/analysis over Go packages, in the style of go vet.
//
// Usage:
//
//	go run ./cmd/lfcheck [packages]     # default ./...
//
// It takes no flags; -h lists the analyzers. Each finding prints as
// "pos: message (analyzer/category)". A malformed or stale
// //lfcheck:allow directive is a finding too. It exits 0 when no
// diagnostics are reported, 1 when there are findings, and 2 on load
// failures — so it slots directly into CI next to go vet.
package main

import (
	"valois/internal/analysis/abaguard"
	"valois/internal/analysis/boundedretry"
	"valois/internal/analysis/casloop"
	"valois/internal/analysis/conndeadline"
	"valois/internal/analysis/framework"
	"valois/internal/analysis/goroleak"
	"valois/internal/analysis/hbpublish"
	"valois/internal/analysis/mixedatomic"
	"valois/internal/analysis/refbalance"
	"valois/internal/analysis/releasepath"
)

func main() {
	framework.Main(
		mixedatomic.Analyzer,
		refbalance.Analyzer,
		abaguard.Analyzer,
		casloop.Analyzer,
		goroleak.Analyzer,
		conndeadline.Analyzer,
		boundedretry.Analyzer,
		hbpublish.Analyzer,
		releasepath.Analyzer,
	)
}
