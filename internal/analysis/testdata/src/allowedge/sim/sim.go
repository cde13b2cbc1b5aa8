// Edge cases of the //azlint:allow directive grammar, exercised under a
// seededrand-only run.
package sim

import "math/rand"

// One directive, two suppressions with their own reasons. The seededrand
// half is used by the line below; the lockorder half belongs to an
// analyzer outside this run set, so it must not be reported stale.
//
//azlint:allow seededrand(live jitter source) lockorder(live lock pair)
func both() float64 { return rand.Float64() }

// Directive trailing on the same line as the code it suppresses.
func trailing() int { return rand.Intn(3) } //azlint:allow seededrand(trailing directive on the offending line)

// A suppression that suppresses nothing while its analyzer runs is
// itself a finding.
//
//azlint:allow seededrand(nothing below draws) // want `stale //azlint:allow seededrand directive: no seededrand diagnostic on this or the next line`
func clean() int { return 1 }

// Malformed directives are diagnostics in their own right, wherever they
// appear — and they suppress nothing. A retired analyzer's name is as
// unknown as a typo.
func bad() {
	//azlint:allow seededrand() // want `empty reason`
	_ = 1

	//azlint:allow walltime(retired check) // want `unknown analyzer "walltime"`
	_ = 2

	//azlint:allow seededrand missing parens // want `want //azlint:allow analyzer\(reason\)`
	_ = 3
}
