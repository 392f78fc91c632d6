//go:build race

package snapshot

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops Puts at random, so a pooled path's allocation count is not fixed.
const raceEnabled = true
