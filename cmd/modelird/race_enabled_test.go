//go:build race

package main

// raceEnabled reports the race detector is on: sync.Pool deliberately
// drops a fraction of Puts under the detector to shake out
// interleavings, so allocation pins that rely on a pool are skipped.
const raceEnabled = true
