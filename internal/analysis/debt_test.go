package analysis_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Suppression-debt ceilings. Every //azlint:allow directive is a known
// violation the tree is carrying; this test pins the per-analyzer
// ceilings so debt can only go down. Pay one down, lower the ceiling in
// the same change; raising a ceiling is a reviewable decision, not an
// accident.
var debtCeiling = map[string]int{
	"seededrand": 1,
}

var allowDirRE = regexp.MustCompile(`//azlint:allow ([a-z][a-z0-9]*)\(`)

func TestSuppressionDebtCeiling(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			// The linter's own sources are full of directive examples
			// (docs, fixtures) that are not suppressions of anything.
			if name == ".git" || name == "testdata" || name == "bin" ||
				path == filepath.Join(root, "internal", "analysis") {
				return filepath.SkipDir
			}
			return nil
		}
		// Test files are outside azlint's scope (it analyses non-test
		// sources only), so directives there are comments, not debt.
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range allowDirRE.FindAllStringSubmatch(string(data), -1) {
			counts[m[1]]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for analyzer, n := range counts {
		if n > debtCeiling[analyzer] {
			t.Errorf("%d //azlint:allow %s directives in the tree, ceiling is %d — "+
				"fix the new violation instead of suppressing it (or raise the ceiling "+
				"deliberately in debt_test.go)", n, analyzer, debtCeiling[analyzer])
		}
	}
	for analyzer, ceiling := range debtCeiling {
		if n := counts[analyzer]; n < ceiling {
			t.Errorf("only %d //azlint:allow %s directives but the ceiling is %d — "+
				"debt was paid down, lower the ceiling to %d", n, analyzer, ceiling, n)
		}
	}
}
