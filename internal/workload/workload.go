// Package workload provides the YCSB-style building blocks the workload
// drivers share: the zipfian key chooser (classic θ=0.99 constant) and the
// canonical record key. The YCSB operation
// mixes themselves are data — examples/scenarios/ycsb-*.yaml.
package workload

import (
	"math"
	"strconv"

	"azurebench/internal/sim"
)

// Zipf chooses keys with the YCSB zipfian distribution (θ = 0.99 by
// default): a few hot keys receive most of the traffic. The implementation
// follows Gray et al.'s "Quickly generating billion-record synthetic
// databases" rejection-free formula, recomputing constants when the range
// grows.
type Zipf struct {
	r     *sim.Rand
	theta float64

	n     int
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
	half  float64 // 1 + 0.5^θ: u·ζ(n) below it (and not below 1) draws rank 1
}

// NewZipf returns a zipfian chooser over growing ranges with parameter
// theta (0 < theta < 1); YCSB uses 0.99.
func NewZipf(r *sim.Rand, theta float64) *Zipf {
	if theta <= 0 || theta >= 1 {
		theta = 0.99
	}
	z := &Zipf{r: r, theta: theta}
	z.zeta2 = zetaStatic(2, theta)
	z.half = 1.0 + math.Pow(0.5, theta)
	return z
}

// Next returns an index in [0, n), where n is the current record count.
func (z *Zipf) Next(n int) int {
	if n <= 0 {
		return 0
	}
	if n != z.n {
		z.n = n
		z.zetan = zetaStatic(n, z.theta)
		z.alpha = 1.0 / (1.0 - z.theta)
		z.eta = (1 - math.Pow(2.0/float64(n), 1-z.theta)) / (1 - z.zeta2/z.zetan)
	}
	u := z.r.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	idx := int(float64(n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= n {
		idx = n - 1
	}
	return idx
}

func zetaStatic(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Key renders the canonical record key of index i: fmt's "user%010d",
// appended digit by digit because a closed loop renders one per operation.
func Key(i int) string {
	var buf [len("user-") + 19]byte
	b := append(buf[:0], "user"...)
	u, width := uint64(i), 10
	if i < 0 {
		b = append(b, '-')
		u, width = -u, width-1 // the sign counts towards the width
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for n := len(d); n < width; n++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}
