package sim

import "math"

// Rand is a small, fast, deterministic PRNG (splitmix64). It is independent
// of math/rand so that simulation traces cannot change under us when the
// standard library evolves. It is not safe for concurrent use; in a
// simulation only one process runs at a time, so no locking is needed.
type Rand struct {
	state uint64
}

// NewRand returns a Rand seeded with seed. Distinct seeds give independent
// looking streams; seed 0 is valid.
func NewRand(seed int64) *Rand {
	r := &Rand{state: uint64(seed)}
	// Warm up so that small seeds do not produce correlated first outputs.
	r.Uint64()
	r.Uint64()
	return r
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform random int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1 (Box–Muller).
func (r *Rand) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 <= 0 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}
