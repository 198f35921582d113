// Package loader type-checks the repository for the paylint analyzers
// without depending on golang.org/x/tools/go/packages. It shells out to the
// go command for package metadata and compiled export data
// (`go list -deps -export -json`), parses the module's own packages from
// source, and type-checks them in dependency order; imports outside the
// module resolve through their export data, so a whole-repo load costs one
// `go list` plus parsing only first-party code.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"bxsoap/internal/analysis/framework"
)

// Package is one source-loaded (first-party) package.
type Package struct {
	Path    string
	Dir     string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	Imports []string
	// Root marks packages named by the load patterns (as opposed to
	// dependencies pulled in for type information and facts).
	Root bool
}

// Program is the result of a Load: every first-party package in dependency
// order, plus the machinery (fileset, importer) needed to type-check more
// code against it (analysistest uses that for corpus packages).
type Program struct {
	Fset       *token.FileSet
	Packages   []*Package // topologically sorted, dependencies first
	ModulePath string

	byPath    map[string]*Package
	exports   map[string]string // import path -> export data file
	gcImport  types.ImporterFrom
	typesConf types.Config
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load lists patterns (plus their full dependency graph) and type-checks
// every first-party package from source.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,Standard,DepOnly,GoFiles,Imports,Module,Error"},
		patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loader: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.Bytes())
	}

	prog := &Program{
		Fset:    token.NewFileSet(),
		byPath:  make(map[string]*Package),
		exports: make(map[string]string),
	}

	var listed []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("loader: decoding go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("loader: %s: %s", p.ImportPath, p.Error.Err)
		}
		listed = append(listed, &p)
		if p.Export != "" {
			prog.exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && prog.ModulePath == "" {
			prog.ModulePath = p.Module.Path
		}
	}

	prog.gcImport = importer.ForCompiler(prog.Fset, "gc", prog.lookupExport).(types.ImporterFrom)
	prog.typesConf = types.Config{Importer: prog}

	// go list -deps emits dependencies before dependents, which is exactly
	// the type-checking order we need.
	for _, p := range listed {
		if p.Standard || (p.Module != nil && prog.ModulePath != "" && p.Module.Path != prog.ModulePath) {
			continue // resolved via export data
		}
		pkg, err := prog.checkFromSource(p)
		if err != nil {
			return nil, err
		}
		pkg.Root = !p.DepOnly
		prog.Packages = append(prog.Packages, pkg)
		prog.byPath[pkg.Path] = pkg
	}
	return prog, nil
}

func (prog *Program) lookupExport(path string) (io.ReadCloser, error) {
	f, ok := prog.exports[path]
	if !ok {
		return nil, fmt.Errorf("loader: no export data for %q", path)
	}
	return os.Open(f)
}

// Import implements types.Importer: first-party packages already checked
// from source win; everything else comes from export data.
func (prog *Program) Import(path string) (*types.Package, error) {
	return prog.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom.
func (prog *Program) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := prog.byPath[path]; ok {
		return p.Types, nil
	}
	return prog.gcImport.ImportFrom(path, srcDir, mode)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

func (prog *Program) checkFromSource(lp *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(prog.Fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("loader: %v", err)
		}
		files = append(files, f)
	}
	info := newInfo()
	tpkg, err := prog.typesConf.Check(lp.ImportPath, prog.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		Path:    lp.ImportPath,
		Dir:     lp.Dir,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		Imports: lp.Imports,
	}, nil
}

// CheckFiles type-checks an extra package (e.g. an analysistest corpus
// directory) against the program. The package may import any package the
// program can resolve — first-party source packages included.
func (prog *Program) CheckFiles(path string, files []*ast.File) (*Package, error) {
	info := newInfo()
	tpkg, err := prog.typesConf.Check(path, prog.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Files: files, Types: tpkg, Info: info}, nil
}

// ParseDir parses every non-test .go file of dir into the program's fileset.
func (prog *Program) ParseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(prog.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	return files, nil
}

// Result is the outcome of a driver run over the program: diagnostics for
// root packages (suppressions applied) and the root-package suppressions
// that swallowed nothing — stale //paylint:ignore comments the CI audit
// step reports.
type Result struct {
	Diagnostics []framework.Diagnostic
	Unused      []*framework.Suppression
}

// RunAll applies every analyzer to every first-party package of the
// program, dependencies first so facts flow to their importers, and returns
// the diagnostics for root packages with //paylint:ignore suppressions
// applied, plus the unused-suppression audit.
func RunAll(prog *Program, analyzers []*framework.Analyzer) (*Result, error) {
	store := framework.NewFactStore()
	res := &Result{}
	for _, pkg := range prog.Packages {
		d, sup, err := runOne(prog, pkg, analyzers, store)
		if err != nil {
			return nil, err
		}
		if pkg.Root {
			res.Diagnostics = append(res.Diagnostics, d...)
			res.Unused = append(res.Unused, sup.Unused()...)
		}
	}
	framework.SortDiagnostics(prog.Fset, res.Diagnostics)
	sort.Slice(res.Unused, func(i, j int) bool {
		if res.Unused[i].File != res.Unused[j].File {
			return res.Unused[i].File < res.Unused[j].File
		}
		return res.Unused[i].Line < res.Unused[j].Line
	})
	return res, nil
}

// RunOn applies the analyzers to one extra package (already checked with
// CheckFiles) after priming facts from the program's packages.
func RunOn(prog *Program, pkg *Package, analyzers []*framework.Analyzer) ([]framework.Diagnostic, error) {
	store := framework.NewFactStore()
	for _, dep := range prog.Packages {
		if _, _, err := runOne(prog, dep, analyzers, store); err != nil {
			return nil, err
		}
	}
	diags, _, err := runOne(prog, pkg, analyzers, store)
	if err != nil {
		return nil, err
	}
	framework.SortDiagnostics(prog.Fset, diags)
	return diags, nil
}

func runOne(prog *Program, pkg *Package, analyzers []*framework.Analyzer, store *framework.FactStore) ([]framework.Diagnostic, *framework.SuppressionSet, error) {
	var sups []*framework.Suppression
	for _, f := range pkg.Files {
		sups = append(sups, framework.CollectSuppressions(prog.Fset, f)...)
	}
	set := framework.NewSuppressionSet(sups)
	var diags []framework.Diagnostic
	for _, a := range analyzers {
		pass := framework.NewPass(a, prog.Fset, pkg.Files, pkg.Types, pkg.Info, store, func(d framework.Diagnostic) {
			if !set.Suppressed(prog.Fset, d.Pos, d.Analyzer.Name) {
				diags = append(diags, d)
			}
		})
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("loader: analyzer %s on %s: %v", a.Name, pkg.Path, err)
		}
	}
	return diags, set, nil
}
