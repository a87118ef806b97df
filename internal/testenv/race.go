//go:build race

package testenv

// Race reports whether the race detector is compiled in. Allocation-count
// guards (testing.AllocsPerRun) skip under it: the detector's
// instrumentation allocates on its own.
const Race = true
