// Fixture: randomness must come from an explicit seeded source, never
// the process-global math/rand state.
package cloud

import "math/rand"

func bad() int {
	return rand.Intn(10) // want `rand\.Intn draws from the process-global math/rand source`
}

func badFloat() float64 {
	return rand.Float64() // want `rand\.Float64 draws from the process-global math/rand source`
}

// Passing the global function as a value smuggles the same state.
var badVal = rand.Float64 // want `rand\.Float64 draws from the process-global math/rand source`

func badShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `rand\.Shuffle`
}

// Explicitly seeded generators are the whole point: allowed.
func okSeeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Methods on an explicit *rand.Rand instance are allowed.
func okInstance(r *rand.Rand) int {
	return r.Intn(10)
}

// The escape hatch for deliberate live-mode defaults.
func allowed() float64 {
	//azlint:allow seededrand(fixture: live-mode default source)
	return rand.Float64()
}
