// Package lintgo is a small, dependency-free static analyzer for the
// repository's own Go source. Its checks guard the determinism
// contract behind the golden-artifact pipeline.
//
// The map-iteration check: a `for ... range` over a map whose body
// feeds an output writer is nondeterministic (Go randomizes map
// iteration order), so any table, JSON file, or log line produced that
// way will drift from run to run and trip the artifact diff gate for
// no semantic reason. The fix is always the same — collect the keys,
// sort, iterate the slice — and the writers in internal/core/persist.go
// are the model.
//
// The nondeterminism-source check (nondet.go): the deterministic
// campaign packages must not read the wall clock or sample from an
// ambient math/rand generator; all randomness goes through stats.RNG.
// Nor may they, or the runner and study layers, start goroutines: their
// parallelism goes through par.ForEach.
//
// The analyzer is built on go/parser and go/types only (the module has
// no external dependencies, so golang.org/x/tools is off the table).
// Packages inside this module are type-checked from source, recursively
// through their intra-module imports; imports from outside the module
// (the standard library included) resolve to empty stub packages.
// Stubbed names type-check to invalid types, which the check treats
// conservatively: a range expression whose type cannot be resolved is
// never flagged. Sink calls are matched syntactically by method or
// function name, so `fmt.Fprintf` is recognized even though the fmt
// package is a stub.
package lintgo

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one nondeterministic-iteration diagnostic.
type Finding struct {
	Pos     token.Position
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message)
}

// sinkNames are the function/method names whose call inside a map-range
// body marks the loop as feeding an artifact writer. Matching is by
// name only: the analyzer cannot resolve stub-imported callees, and a
// same-named local function writing output is just as much of a hazard.
var sinkNames = map[string]bool{
	"Fprintf": true, "Fprintln": true, "Fprint": true,
	"Printf": true, "Println": true, "Print": true,
	"WriteString": true, "Write": true, "WriteByte": true, "WriteRune": true,
	"WriteFile": true, "Encode": true,
}

// CheckTree analyzes every package under root (a module root containing
// go.mod) and returns the findings in deterministic file/line order.
// testdata, vendor, out, and dot-directories are skipped; _test.go
// files are not analyzed.
func CheckTree(root string) ([]Finding, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	c := newChecker(root, modPath)
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor" || name == "out") {
			return filepath.SkipDir
		}
		hasGo, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if hasGo {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, dir := range dirs {
		fs, err := c.checkDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out, nil
}

// checker loads and type-checks packages, acting as its own
// types.Importer: intra-module paths are resolved from source (with
// caching), everything else becomes an empty stub package.
type checker struct {
	fset    *token.FileSet
	root    string
	modPath string
	pkgs    map[string]*types.Package // by import path; stubs included
	loaded  map[string]*loadedPkg     // by directory
}

type loadedPkg struct {
	files []*ast.File
	info  *types.Info
}

func newChecker(root, modPath string) *checker {
	return &checker{
		fset:    token.NewFileSet(),
		root:    root,
		modPath: modPath,
		pkgs:    map[string]*types.Package{},
		loaded:  map[string]*loadedPkg{},
	}
}

// Import implements types.Importer.
func (c *checker) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	if path == c.modPath || strings.HasPrefix(path, c.modPath+"/") {
		dir := filepath.Join(c.root, filepath.FromSlash(strings.TrimPrefix(path, c.modPath)))
		if _, err := c.load(dir, path); err != nil {
			return nil, err
		}
		return c.pkgs[path], nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	c.pkgs[path] = p
	return p, nil
}

// load parses and type-checks the package in dir under the given import
// path, tolerating (and discarding) type errors from stubbed imports.
func (c *checker) load(dir, path string) (*loadedPkg, error) {
	if lp, ok := c.loaded[dir]; ok {
		return lp, nil
	}
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
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{
		Importer:    c,
		Error:       func(error) {}, // stubbed imports guarantee errors; keep going
		FakeImportC: true,
	}
	pkg, _ := conf.Check(path, c.fset, files, info)
	if pkg != nil {
		c.pkgs[path] = pkg
	}
	lp := &loadedPkg{files: files, info: info}
	c.loaded[dir] = lp
	return lp, nil
}

// checkDir loads the package in dir and scans it.
func (c *checker) checkDir(dir string) ([]Finding, error) {
	rel, err := filepath.Rel(c.root, dir)
	if err != nil {
		return nil, err
	}
	path := c.modPath
	if rel != "." {
		path = c.modPath + "/" + filepath.ToSlash(rel)
	}
	lp, err := c.load(dir, path)
	if err != nil {
		return nil, err
	}
	var out []Finding
	ban, banned := nondetBanFor(filepath.ToSlash(rel))
	for _, f := range lp.files {
		out = append(out, c.scanFile(lp.info, f)...)
		if banned {
			out = append(out, c.scanNondet(f, ban)...)
		}
	}
	return out, nil
}

// scanFile flags every range-over-map statement whose body calls an
// output sink.
func (c *checker) scanFile(info *types.Info, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if sink := firstSink(rs.Body); sink != "" {
			out = append(out, Finding{
				Pos: c.fset.Position(rs.Pos()),
				Message: fmt.Sprintf("map iteration order is nondeterministic but the loop body writes output via %s; collect and sort the keys first (see internal/core/persist.go)",
					sink),
			})
		}
		return true
	})
	return out
}

// firstSink returns the name of the first sink call in the body, or "".
func firstSink(body *ast.BlockStmt) string {
	var found string
	ast.Inspect(body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fn := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fn.Sel.Name
		case *ast.Ident:
			name = fn.Name
		}
		if sinkNames[name] {
			found = name
			return false
		}
		return true
	})
	return found
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lintgo: no module directive in %s/go.mod", root)
}
