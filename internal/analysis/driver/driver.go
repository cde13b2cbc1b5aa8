// Package driver runs the azlint analyzer suite over type-checked
// packages with nothing but the standard library. It takes package
// patterns (`azlint ./...`) and nothing else, shells out to
// `go list -export -deps -json`, type-checks each matched package
// against its dependencies' export data and analyses it on its own.
// Findings go to stderr, one `file:line:col: message [azlint:name]` line
// each.
//
// golang.org/x/tools is deliberately not used: the module has no
// dependencies, and the toolchain's export-data importer
// (go/importer with a lookup function) is sufficient.
package driver

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"azurebench/internal/analysis"
)

// Main is the azlint entry point; it returns the process exit code
// (0 clean, 1 diagnostics reported, 2 usage or operational failure).
// There are no flags: an argument that looks like one gets the usage
// line rather than being handed to `go list` as a package pattern.
func Main(patterns []string, stderr io.Writer) int {
	usage := len(patterns) == 0
	for _, p := range patterns {
		usage = usage || strings.HasPrefix(p, "-")
	}
	if usage {
		fmt.Fprintln(stderr, "usage: azlint <packages>")
		return 2
	}
	return run(patterns, stderr)
}

// listPackage is the subset of `go list -json` output the driver needs.
type listPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
}

func run(patterns []string, stderr io.Writer) int {
	listArgs := append([]string{
		"list", "-export", "-deps",
		"-json=Dir,ImportPath,Export,GoFiles,DepOnly,Standard",
	}, patterns...)
	cmd := exec.Command("go", listArgs...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(stderr, "azlint: go list: %v\n", err)
		return 2
	}
	// Dependencies are listed for their export data only.
	exports := map[string]string{}
	var pkgs []listPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			fmt.Fprintf(stderr, "azlint: decoding go list output: %v\n", err)
			return 2
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	// One importer across packages: shared dependencies load once.
	imp := importer.ForCompiler(fset, "gc", lookup)

	exit := 0
	for _, p := range pkgs {
		var paths []string
		for _, f := range p.GoFiles {
			if !filepath.IsAbs(f) {
				f = filepath.Join(p.Dir, f)
			}
			paths = append(paths, f)
		}
		files, err := parseFiles(fset, paths)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		pkg, info, err := typecheck(fset, p.ImportPath, files, imp)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		for _, d := range analysis.Analyze(&analysis.Package{Fset: fset, Files: files, Pkg: pkg, Info: info}, analysis.All()) {
			fmt.Fprintf(stderr, "%s: %s [azlint:%s]\n", fset.Position(d.Pos), d.Message, d.Analyzer)
			exit = 1
		}
	}
	return exit
}

func parseFiles(fset *token.FileSet, paths []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			if list, ok := err.(scanner.ErrorList); ok && len(list) > 0 {
				return nil, fmt.Errorf("%v", list[0])
			}
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func typecheck(fset *token.FileSet, importPath string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := analysis.NewInfo()
	pkg, _ := conf.Check(importPath, fset, files, info)
	if firstErr != nil {
		return nil, nil, fmt.Errorf("azlint: typechecking %s: %v", importPath, firstErr)
	}
	return pkg, info, nil
}
