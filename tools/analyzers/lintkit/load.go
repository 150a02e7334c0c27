package lintkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package of the target module.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	allow allowIndex
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// goList runs `go list -json` in dir for the given patterns.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-json=ImportPath,Dir,GoFiles,Standard,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listPkg
	for dec.More() {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list decode: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// loader type-checks module-local packages from source, delegating
// standard-library imports to the compiler's source importer. It keeps
// everything offline: no export data, no module downloads.
type loader struct {
	fset     *token.FileSet
	std      types.Importer
	metas    map[string]*listPkg
	done     map[string]*checked
	checking map[string]bool
}

// checked caches one fully type-checked module-local package.
type checked struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

func (l *loader) Import(path string) (*types.Package, error) {
	if meta, ok := l.metas[path]; ok {
		c, err := l.check(meta)
		if err != nil {
			return nil, err
		}
		return c.pkg, nil
	}
	return l.std.Import(path)
}

func (l *loader) check(meta *listPkg) (*checked, error) {
	if c, ok := l.done[meta.ImportPath]; ok {
		return c, nil
	}
	if l.checking[meta.ImportPath] {
		return nil, fmt.Errorf("import cycle through %s", meta.ImportPath)
	}
	l.checking[meta.ImportPath] = true
	defer delete(l.checking, meta.ImportPath)
	var files []*ast.File
	for _, name := range meta.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(meta.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(meta.ImportPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", meta.ImportPath, err)
	}
	c := &checked{pkg: pkg, info: info, files: files}
	l.done[meta.ImportPath] = c
	return c, nil
}

// stdImporter is shared across every LoadDir call of a process: the
// source importer re-type-checks each standard-library package from
// source on first import, which dominates load time. It owns a private
// FileSet, so sharing it between runs is safe — analyzers never report
// positions inside the standard library. The mutation harness, which
// loads the module dozens of times (and, since it went parallel, from
// several goroutines at once), depends on this cache to stay inside
// its CI time budget; the mutex makes the cache safe to share.
var (
	stdImporterMu sync.Mutex
	stdImporter   types.Importer
)

// lockedImporter serializes Import calls: the underlying source
// importer mutates its internal package cache and is not safe for
// concurrent use. Import never re-enters the wrapper — the importer
// resolves transitive imports through its own internals — so a plain
// mutex cannot self-deadlock.
type lockedImporter struct {
	mu  *sync.Mutex
	imp types.Importer
}

func (li lockedImporter) Import(path string) (*types.Package, error) {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.imp.Import(path)
}

func sharedStdImporter() types.Importer {
	stdImporterMu.Lock()
	if stdImporter == nil {
		stdImporter = importer.ForCompiler(token.NewFileSet(), "source", nil)
	}
	imp := stdImporter
	stdImporterMu.Unlock()
	return lockedImporter{mu: &stdImporterMu, imp: imp}
}

// LoadDir loads and type-checks the packages matched by patterns
// (default ./...) inside the module rooted at dir. Only non-test Go
// files are parsed: the invariants guarded here are about shipped
// model, codec and transport code, and tests legitimately use exact
// comparisons and wall clocks to assert on them.
func LoadDir(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// Metadata for the whole module and its non-standard dependencies,
	// so imports between target packages always resolve, whatever subset
	// the patterns select, and a module that pulls another one in with a
	// replace directive type-checks the replaced packages from source.
	metas, err := goList(dir, []string{"-deps", "./..."})
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:     token.NewFileSet(),
		std:      sharedStdImporter(),
		metas:    make(map[string]*listPkg),
		done:     make(map[string]*checked),
		checking: make(map[string]bool),
	}
	for _, m := range metas {
		if m.Standard {
			continue // the shared source importer covers the standard library
		}
		if m.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", m.ImportPath, m.Error.Err)
		}
		if len(m.GoFiles) > 0 {
			l.metas[m.ImportPath] = m
		}
	}
	targets, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, t := range targets {
		meta, ok := l.metas[t.ImportPath]
		if !ok {
			continue // outside the module, or no buildable Go files
		}
		c, err := l.check(meta)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{
			ImportPath: meta.ImportPath,
			Dir:        meta.Dir,
			Fset:       l.fset,
			Files:      c.files,
			Types:      c.pkg,
			Info:       c.info,
			allow:      buildAllowIndex(l.fset, c.files),
		})
	}
	return out, nil
}
