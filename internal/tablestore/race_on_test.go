//go:build race

package tablestore

// raceEnabled reports that the test binary runs under the race detector,
// which allocates on its own behalf: allocation ceilings do not hold there.
const raceEnabled = true
