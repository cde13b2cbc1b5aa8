//go:build race

package cloud

// raceEnabled reports that the test binary runs under the race detector,
// whose runtime allocates on the detector's behalf, more under load: the
// allocation ceilings do not hold there.
const raceEnabled = true
