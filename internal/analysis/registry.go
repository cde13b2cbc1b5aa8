package analysis

// All returns the azlint analyzer suite in reporting order. seededrand
// follows its root interprocedurally through the facts table; errdrop,
// simblock and lockorder are per-package. Each one stays because it
// reports a probe violation that `go test ./...` lets through (DESIGN.md
// §8); walltime, maporder, hotalloc, digestunsafe and snapshotsafe went
// when every probe of theirs failed a test.
func All() []*Analyzer {
	return []*Analyzer{
		Seededrand,
		Errdrop,
		Simblock,
		Lockorder,
	}
}
