//go:build race

package core

// raceEnabled reports a race-detector build, under which sync.Pool drops
// a share of what is put back, so pooled-allocation counts do not hold.
const raceEnabled = true
