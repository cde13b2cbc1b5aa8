//go:build !race

package xmlwire

const raceEnabled = false
