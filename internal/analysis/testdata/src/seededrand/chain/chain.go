// Package chain is a helper package outside the simulation. A chain of
// helpers that ends in a global math/rand draw is reported once, at the
// draw; its callers stay clean, whichever package they are in.
package chain

import "math/rand"

// Jitter draws from the process-global source two hops down.
func Jitter() float64 { return roll() }

func roll() float64 {
	return rand.Float64() // want `rand\.Float64 draws from the process-global math/rand source in package chain`
}

// Default is a sanctioned live-mode default: its callers are clean too.
func Default() float64 {
	//azlint:allow seededrand(fixture: live-mode default source)
	return rand.Float64()
}

// Backoff calls both helpers; neither call is a finding of its own.
func Backoff(r *rand.Rand) float64 {
	return Draw(r) + Jitter() + Default()
}

// Draw uses the caller's seeded generator: clean, and so are its
// callers.
func Draw(r *rand.Rand) float64 { return r.Float64() }
