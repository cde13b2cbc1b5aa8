package analysis

// All returns the azlint analyzer suite in reporting order. Each one
// looks at one package at a time, and each stays because it reports a
// probe violation that `go test ./...` lets through (DESIGN.md §8);
// walltime, maporder, hotalloc, digestunsafe and snapshotsafe went when
// every probe of theirs failed a test.
func All() []*Analyzer {
	return []*Analyzer{
		Seededrand,
		Errdrop,
		Simblock,
		Lockorder,
	}
}
