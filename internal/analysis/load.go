package analysis

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
)

// The driver: packages are enumerated and compiled with
// `go list -deps -export -json`, then each target package is parsed and
// type-checked from source while its dependencies are imported from the
// compiler's export data — the split golang.org/x/tools' checkers use,
// reimplemented here because that module is not a dependency.

// listedPackage is the subset of `go list -json` output the driver needs.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	DepOnly    bool
	Standard   bool
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// goList runs `go list -deps -export -json` over patterns in dir.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiler export data files via the
// gc importer's lookup hook.
type exportImporter struct {
	imp     types.ImporterFrom
	exports map[string]string // import path -> export data file
	imports map[string]string // per-package ImportMap (vendor/test rewrites)
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	e := &exportImporter{exports: exports}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := e.exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	e.imp = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return e
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := e.imports[path]; ok && mapped != "" {
		path = mapped
	}
	return e.imp.ImportFrom(path, "", 0)
}

// RunStandalone loads the packages matching patterns (relative to dir),
// runs every analyzer over each non-dependency package, and prints
// sorted diagnostics to w. Only a package's GoFiles are loaded, so
// _test.go files are never analyzed: tests deliberately poke at
// internals. Returns the number of diagnostics.
func RunStandalone(dir string, patterns []string, analyzers []*Analyzer, w io.Writer) (int, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return 0, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)

	total := 0
	for _, p := range pkgs {
		if p.DepOnly || p.Name == "" || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			return total, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			continue // no cgo in this module; skip rather than mis-typecheck
		}
		diags, err := analyzePackage(fset, imp, p, analyzers)
		if err != nil {
			return total, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		total += len(diags)
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
	}
	return total, nil
}

type printedDiag struct {
	pos      token.Position
	analyzer string
	msg      string
}

func (d printedDiag) String() string {
	return fmt.Sprintf("%s: %s: %s", d.pos, d.analyzer, d.msg)
}

// analyzePackage parses and type-checks one package from source, runs the
// suite over it and returns its diagnostics in position order.
func analyzePackage(fset *token.FileSet, imp *exportImporter, p *listedPackage, analyzers []*Analyzer) ([]printedDiag, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	imp.imports = p.ImportMap
	info := newTypesInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, err
	}
	notes := CollectNotes(fset, files)
	var diags []printedDiag
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Notes:     notes,
		}
		pass.Report = func(d Diagnostic) {
			diags = append(diags, printedDiag{pos: fset.Position(d.Pos), analyzer: a.Name, msg: d.Message})
		}
		if err := a.Run(pass); err != nil {
			diags = append(diags, printedDiag{analyzer: a.Name, msg: "analyzer error: " + err.Error()})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].pos, diags[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].analyzer < diags[j].analyzer
	})
	return diags, nil
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}
