package analysis

// All returns the azlint analyzer suite in reporting order. walltime and
// seededrand follow their roots interprocedurally through the facts
// table; maporder, errdrop, simblock, lockorder and hotalloc are
// per-package. Each one stays because it reports a probe violation that
// `go test ./...` lets through (DESIGN.md §8); digestunsafe and
// snapshotsafe went when every probe of theirs failed a test.
func All() []*Analyzer {
	return []*Analyzer{
		Walltime,
		Seededrand,
		Maporder,
		Errdrop,
		Simblock,
		Lockorder,
		Hotalloc,
	}
}
