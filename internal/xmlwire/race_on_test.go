//go:build race

package xmlwire

// raceEnabled reports that the test binary runs under the race detector,
// which makes sync.Pool drop items at random: allocation ceilings do not
// hold there.
const raceEnabled = true
