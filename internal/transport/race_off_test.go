//go:build !race

package transport

// raceEnabled reports a -race build, under which sync.Pool drops a share of
// its puts on purpose, so allocation counts do not hold.
const raceEnabled = false
