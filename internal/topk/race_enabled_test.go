//go:build race

package topk

// raceEnabled reports the race detector is on: sync.Pool deliberately
// drops a fraction of Puts under the detector to shake out
// interleavings, so zero-allocation assertions are skipped.
const raceEnabled = true
