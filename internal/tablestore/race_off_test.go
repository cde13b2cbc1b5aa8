//go:build !race

package tablestore

const raceEnabled = false
