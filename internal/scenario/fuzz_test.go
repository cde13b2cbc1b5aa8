package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"azurebench/internal/core"
)

// FuzzParse feeds arbitrary bytes to the scenario front door — the YAML
// subset reader, the tag-driven decoder and validate — which is the one
// parser in the tree that reads files a user writes by hand. It must
// never panic and never return (nil, nil), and every spec it accepts
// must be safe to hand to CheckLive (which walks all the optional
// stanzas) and to Apply (which copies the patches by reflection). The
// seeds are the shipped scenario library and the golden specs, valid and
// invalid.
func FuzzParse(f *testing.F) {
	for _, pattern := range []string{
		"../../examples/scenarios/*.yaml",
		"testdata/*.yaml",
		"testdata/live/*.yaml",
	} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			f.Fatalf("no seed specs under %s (err=%v)", pattern, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(src)
		}
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		sp, err := Parse(src)
		if err != nil {
			return
		}
		if sp == nil {
			t.Fatal("Parse returned (nil, nil)")
		}
		_ = sp.CheckLive() // a sim-only spec is an error here, never a panic
		cfg := core.QuickConfig()
		sp.Apply(&cfg)
	})
}
