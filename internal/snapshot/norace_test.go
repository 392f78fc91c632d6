//go:build !race

package snapshot

const raceEnabled = false
