// Fixture: no simulation path segment — one-off tooling. A global draw
// is still reported: the check has no package scope.
package outofscope

import "math/rand"

func draw() int {
	return rand.Intn(10) // want `rand\.Intn draws from the process-global math/rand source in package outofscope`
}
