//go:build race

package engine

// raceEnabled reports a -race build, where sync.Pool drops a share of
// its items on purpose and allocation counts stop being reproducible.
const raceEnabled = true
