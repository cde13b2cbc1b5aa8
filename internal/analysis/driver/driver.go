// Package driver runs the azlint analyzer suite over type-checked
// packages with nothing but the standard library. It takes package
// patterns (`azlint ./...`), shells out to `go list -export -deps -json`
// and processes packages in dependency order, keeping the
// interprocedural function summaries in memory so each package sees the
// facts of everything it imports. The reporting and repair flags:
// -json/-sarif machine-readable output (-o FILE), -debt the
// suppression-debt report, and -fix to apply suggested fixes to the
// working tree.
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
	"sort"
	"strings"

	"azurebench/internal/analysis"
)

// options are the command-line flags.
type options struct {
	fix      bool // apply suggested fixes to the tree
	jsonOut  bool // machine-readable JSON findings
	sarifOut bool // SARIF 2.1.0 findings
	debt     bool // suppression-debt report instead of findings
	outFile  string
}

// Main is the azlint entry point; it returns the process exit code
// (0 clean, 1 diagnostics reported, 2 operational failure).
func Main(args []string, stdout, stderr io.Writer) int {
	var opts options
	var patterns []string
	for i := 0; i < len(args); i++ {
		arg := args[i]
		switch {
		case arg == "-fix":
			opts.fix = true
		case arg == "-json":
			opts.jsonOut = true
		case arg == "-sarif":
			opts.sarifOut = true
		case arg == "-debt":
			opts.debt = true
		case strings.HasPrefix(arg, "-o="):
			opts.outFile = arg[len("-o="):]
		case arg == "-o" && i+1 < len(args):
			i++
			opts.outFile = args[i]
		default:
			patterns = append(patterns, arg)
		}
	}
	if len(patterns) == 0 {
		fmt.Fprintln(stderr, "usage: azlint [-fix] [-json|-sarif] [-o file] [-debt] <packages>")
		return 2
	}
	return run(opts, patterns, stdout, stderr)
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

// finding is one diagnostic with its resolved position, aggregated
// across packages for the output emitters.
type finding struct {
	diag analysis.Diagnostic
	pos  token.Position
}

func run(opts options, patterns []string, stdout, stderr io.Writer) int {
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
	exports := map[string]string{}
	// `go list -deps` emits dependencies before dependents, which is
	// exactly the order facts must be computed in.
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
		if !p.Standard {
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

	factsByPath := map[string]*analysis.PkgFacts{}
	depFacts := func(importPath string) *analysis.PkgFacts { return factsByPath[importPath] }

	var findings []finding
	var allAllows []analysis.Allow
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
		var analyzers []*analysis.Analyzer
		if !p.DepOnly {
			analyzers = analysis.All()
		}
		res := analysis.Analyze(&analysis.Package{Fset: fset, Files: files, Pkg: pkg, Info: info}, analyzers, depFacts)
		factsByPath[p.ImportPath] = res.Facts
		if p.DepOnly {
			continue
		}
		allAllows = append(allAllows, res.Allows...)
		for _, d := range res.Diags {
			findings = append(findings, finding{diag: d, pos: fset.Position(d.Pos)})
		}
	}

	if opts.debt {
		printDebt(stdout, allAllows)
		return 0
	}
	if opts.fix {
		return applyFixes(fset, findings, stdout, stderr)
	}

	output := stdout
	if opts.outFile != "" {
		f, err := os.Create(opts.outFile)
		if err != nil {
			fmt.Fprintf(stderr, "azlint: %v\n", err)
			return 2
		}
		defer f.Close()
		output = f
	}
	switch {
	case opts.sarifOut:
		if err := writeSARIF(output, findings); err != nil {
			fmt.Fprintf(stderr, "azlint: writing SARIF: %v\n", err)
			return 2
		}
	case opts.jsonOut:
		if err := writeJSON(output, findings); err != nil {
			fmt.Fprintf(stderr, "azlint: writing JSON: %v\n", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintf(stderr, "%s: %s [azlint:%s]\n", f.pos, f.diag.Message, f.diag.Analyzer)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// applyFixes applies the suggested fixes of every finding to the working
// tree, then reports what remains.
func applyFixes(fset *token.FileSet, findings []finding, stdout, stderr io.Writer) int {
	var fixable []analysis.Diagnostic
	src := map[string][]byte{}
	for _, f := range findings {
		if f.diag.Fix == nil {
			continue
		}
		fixable = append(fixable, f.diag)
		for _, e := range f.diag.Fix.Edits {
			name := fset.Position(e.Pos).Filename
			if _, ok := src[name]; ok {
				continue
			}
			data, err := os.ReadFile(name)
			if err != nil {
				fmt.Fprintf(stderr, "azlint: %v\n", err)
				return 2
			}
			src[name] = data
		}
	}
	fixed, applied := analysis.ApplyFixes(fset, fixable, src)
	names := make([]string, 0, len(fixed))
	for name := range fixed {
		names = append(names, name)
	}
	sort.Strings(names)
	changed := 0
	for _, name := range names {
		data := fixed[name]
		if string(data) == string(src[name]) {
			continue
		}
		if err := os.WriteFile(name, data, 0o666); err != nil {
			fmt.Fprintf(stderr, "azlint: %v\n", err)
			return 2
		}
		changed++
	}
	fmt.Fprintf(stdout, "azlint -fix: applied %d fix(es) across %d file(s)\n", applied, changed)
	exit := 0
	for _, f := range findings {
		if f.diag.Fix != nil {
			continue
		}
		fmt.Fprintf(stderr, "%s: %s [azlint:%s] (no mechanical fix)\n", f.pos, f.diag.Message, f.diag.Analyzer)
		exit = 1
	}
	return exit
}

// printDebt renders the suppression-debt report: how many
// //azlint:allow directives are live in the analyzed packages, per
// analyzer. The total is the number of known violations the tree is
// carrying — the trend to drive to zero.
func printDebt(w io.Writer, allows []analysis.Allow) {
	byAnalyzer := map[string]int{}
	for _, a := range allows {
		byAnalyzer[a.Analyzer]++
	}
	names := make([]string, 0, len(byAnalyzer))
	for name := range byAnalyzer {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-14s %8s\n", "analyzer", "allows")
	for _, name := range names {
		fmt.Fprintf(w, "%-14s %8d\n", name, byAnalyzer[name])
	}
	fmt.Fprintf(w, "%-14s %8d\n", "total", len(allows))
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
