//go:build !race

package testenv

// Race reports whether the race detector is compiled in; see race.go.
const Race = false
