//go:build !race

// Package race reports whether the race detector is compiled in.
// Allocation-count tests skip under it: the detector's instrumentation
// allocates on its own account.
package race

// Enabled is true in -race builds.
const Enabled = false
