// Package atest is a fixture-driven test harness for the azlint
// analyzers, in the spirit of golang.org/x/tools/go/analysis/analysistest
// but standard-library only.
//
// Fixture packages live in a GOPATH-style tree, testdata/src/<importpath>/,
// so scope-sensitive analyzers see realistic import paths (errdrop
// tracks calls into packages with a "cloud" segment, so "errdrop/cloud"
// is tracked and "errdrop/app" is not). Imports between fixture packages
// resolve within the tree; standard-library imports are type-checked
// from source via go/importer.
//
// Expected diagnostics are declared inline:
//
//	n := rand.Intn(3) // want `rand\.Intn draws from the process-global math/rand source`
//
// Every `want` pattern (a regexp, backtick- or double-quoted, several per
// comment allowed) must match a diagnostic reported on its line, and
// every reported diagnostic must be matched by some pattern.
package atest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"azurebench/internal/analysis"
)

// The file set and importers are shared across all tests in the binary:
// type-checking the standard library from source is the dominant cost
// and its results are cached inside the importer.
var (
	mu       sync.Mutex
	fset     = token.NewFileSet()
	stdImp   types.Importer
	pkgCache = map[string]*fixturePkg{}
)

type fixturePkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	err   error
}

// Run checks analyzer a against the fixture packages at
// testdata/src/<path> for each given import path.
func Run(t *testing.T, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		fp := loadFixture(testdata, path)
		if fp.err != nil {
			t.Errorf("%s: loading fixture: %v", path, fp.err)
			continue
		}
		diags := analysis.Analyze(
			&analysis.Package{Fset: fset, Files: fp.files, Pkg: fp.pkg, Info: fp.info},
			[]*analysis.Analyzer{a},
		)
		checkWants(t, path, fp.files, diags)
	}
}

// loadFixture parses and type-checks one fixture package (cached).
func loadFixture(testdata, path string) *fixturePkg {
	key := testdata + "\x00" + path
	if fp, ok := pkgCache[key]; ok {
		return fp
	}
	fp := &fixturePkg{}
	pkgCache[key] = fp

	dir := filepath.Join(testdata, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		fp.err = err
		return fp
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			fp.err = err
			return fp
		}
		fp.files = append(fp.files, f)
	}
	if len(fp.files) == 0 {
		fp.err = fmt.Errorf("no Go files in %s", dir)
		return fp
	}
	if stdImp == nil {
		stdImp = importer.ForCompiler(fset, "source", nil)
	}
	conf := types.Config{Importer: &fixtureImporter{testdata: testdata}}
	info := analysis.NewInfo()
	pkg, err := conf.Check(path, fset, fp.files, info)
	if err != nil {
		fp.err = err
		return fp
	}
	fp.pkg, fp.info = pkg, info
	return fp
}

// fixtureImporter resolves imports inside the testdata tree first and
// falls back to the shared standard-library importer.
type fixtureImporter struct {
	testdata string
}

func (imp *fixtureImporter) Import(path string) (*types.Package, error) {
	dir := filepath.Join(imp.testdata, "src", filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		fp := loadFixture(imp.testdata, path)
		if fp.err != nil {
			return nil, fp.err
		}
		return fp.pkg, nil
	}
	return stdImp.Import(path)
}

// --- want-comment checking ---

var wantArgRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type lineKey struct {
	file string
	line int
}

func checkWants(t *testing.T, fixture string, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := map[lineKey][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantArgRE.FindAllStringSubmatch(text[idx+len("// want "):], -1) {
					pat := m[1]
					if pat == "" {
						unq, err := strconv.Unquote(`"` + m[2] + `"`)
						if err != nil {
							t.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[2], err)
							continue
						}
						pat = unq
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						continue
					}
					wants[lineKey{pos.Filename, pos.Line}] = append(wants[lineKey{pos.Filename, pos.Line}], re)
				}
			}
		}
	}

	matched := map[int]bool{} // diagnostic index -> consumed
	for key, res := range wants {
		for _, re := range res {
			found := false
			for i, d := range diags {
				if matched[i] {
					continue
				}
				pos := fset.Position(d.Pos)
				if pos.Filename == key.file && pos.Line == key.line && re.MatchString(d.Message) {
					matched[i] = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: %s:%d: no diagnostic matching %q", fixture, key.file, key.line, re)
			}
		}
	}
	for i, d := range diags {
		if !matched[i] {
			pos := fset.Position(d.Pos)
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s [%s]", fixture, pos.Filename, pos.Line, d.Message, d.Analyzer)
		}
	}
}
