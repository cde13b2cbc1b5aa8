package sim

func last() int { return 2 }

// A directive as the very last line of a file covers nothing; it must
// be reported stale, not crash the harness.
//azlint:allow seededrand(directive at end of file) // want `stale //azlint:allow seededrand directive`
