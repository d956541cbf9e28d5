//go:build race

package compress

// raceEnabled reports a race-detector build, whose sync.Pool drops a share
// of what it is handed, so pooled codec state is sometimes built again.
const raceEnabled = true
