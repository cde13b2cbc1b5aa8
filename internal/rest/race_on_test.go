//go:build race

package rest

// raceEnabled reports that the test binary runs under the race detector,
// which makes sync.Pool drop items at random and the runtime allocate on
// the detector's behalf: allocation ceilings do not hold there.
const raceEnabled = true
