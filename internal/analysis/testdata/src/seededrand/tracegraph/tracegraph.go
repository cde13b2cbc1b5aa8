// Fixture: trace/span identity generation must stay a pure function of
// the seed. A span-ID generator that touches the process-global
// math/rand source would make trace exports (and everything digested
// from them) irreproducible; the analyzer must flag it.
package tracegraph

import (
	"fmt"
	"math/rand"
)

// badSpanID draws span identity from the shared global source: the IDs
// now depend on every other rand consumer in the process.
func badSpanID() string {
	return fmt.Sprintf("%016x", rand.Uint64()) // want `rand\.Uint64 draws from the process-global math/rand source`
}

// badTraceID smuggles the same state through Int63.
func badTraceID() string {
	return fmt.Sprintf("%016x", rand.Int63()) // want `rand\.Int63 draws from the process-global math/rand source`
}

// IDGen is the sanctioned shape: identity flows from an explicit seed,
// so the same workload always exports the same span IDs.
type IDGen struct{ r *rand.Rand }

// NewIDGen seeds the generator explicitly — allowed.
func NewIDGen(seed int64) *IDGen {
	return &IDGen{r: rand.New(rand.NewSource(seed))}
}

// SpanID draws from the instance source — allowed.
func (g *IDGen) SpanID() string {
	return fmt.Sprintf("%016x", g.r.Uint64())
}
