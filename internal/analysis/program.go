package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Program is a set of type-checked packages: every package found under the
// load root, plus (cached, not analyzed) everything they import.
type Program struct {
	Fset *token.FileSet
	// Packages are the target packages in deterministic (import-path)
	// order — the ones analyzers run over.
	Packages []*PackageInfo

	byTypes map[*types.Package]*PackageInfo
}

// PackageInfo is one loaded target package.
type PackageInfo struct {
	PkgPath string
	Dir     string
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
}

// FilesOf returns the parsed files of a target package, or nil for
// packages outside the load root (stdlib). Analyzers use it to read
// directive comments attached to declarations in other packages.
func (p *Program) FilesOf(pkg *types.Package) []*ast.File {
	if pi, ok := p.byTypes[pkg]; ok {
		return pi.Files
	}
	return nil
}

// LoadConfig configures Load.
type LoadConfig struct {
	// Dir is the root directory to load packages from.
	Dir string
	// ModulePath is the import-path prefix that maps to Dir (the module
	// path from go.mod). Empty selects fixture mode: every directory under
	// Dir is importable by its slash-separated path relative to Dir —
	// the layout of analysistest testdata/src trees.
	ModulePath string
	// IncludeTests also parses and checks _test.go files in each target
	// package (external test packages are not loaded).
	IncludeTests bool
}

// Load discovers, parses and type-checks every Go package under cfg.Dir.
// Imports that resolve inside the root are compiled from source as target
// packages; everything else (the standard library) is satisfied by the
// toolchain's export data, falling back to compiling from source when no
// export data is installed.
func Load(cfg LoadConfig) (*Program, error) {
	root, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	dirs, err := discover(root)
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: token.NewFileSet(), byTypes: map[*types.Package]*PackageInfo{}}
	ld := &loader{
		cfg:     cfg,
		root:    root,
		prog:    prog,
		local:   map[string]string{},
		loaded:  map[string]*PackageInfo{},
		loading: map[string]bool{},
	}
	paths := make([]string, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		var path string
		switch {
		case rel == "." && cfg.ModulePath != "":
			path = cfg.ModulePath
		case rel == ".":
			continue // fixture mode has no root package
		case cfg.ModulePath != "":
			path = cfg.ModulePath + "/" + filepath.ToSlash(rel)
		default:
			path = filepath.ToSlash(rel)
		}
		ld.local[path] = dir
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		pi, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		if pi != nil {
			prog.byTypes[pi.Pkg] = pi
		}
	}
	// Packages were appended in dependency order; re-sort by path so the
	// analysis (and its output) order is independent of import structure.
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].PkgPath < prog.Packages[j].PkgPath
	})
	return prog, nil
}

// discover walks root collecting directories that contain Go files,
// skipping hidden directories, testdata trees, vendored code and, as the
// go command does, nested modules: a directory below root that holds a
// go.mod belongs to another module, not to root's.
func discover(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range ents {
			if e.IsDir() {
				continue
			}
			if e.Name() == "go.mod" && path != root {
				return filepath.SkipDir
			}
			if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				hasGo = true
			}
		}
		if hasGo {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// loader resolves imports: local paths compile from source, the rest go to
// the toolchain importers. It implements types.Importer.
type loader struct {
	cfg     LoadConfig
	root    string
	prog    *Program
	local   map[string]string // import path -> directory
	loaded  map[string]*PackageInfo
	loading map[string]bool
	std     types.Importer // export-data importer, created lazily
	src     types.Importer // from-source fallback, created lazily
	stdPkgs map[string]*types.Package
}

func (ld *loader) Import(path string) (*types.Package, error) {
	if _, ok := ld.local[path]; ok {
		pi, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pi.Pkg, nil
	}
	return ld.importStd(path)
}

// importStd resolves a non-local import (standard library): export data
// first — fast, and present on any installed toolchain — then compiling
// from source under GOROOT when export data is missing.
func (ld *loader) importStd(path string) (*types.Package, error) {
	if ld.stdPkgs == nil {
		ld.stdPkgs = map[string]*types.Package{}
	}
	if pkg, ok := ld.stdPkgs[path]; ok {
		return pkg, nil
	}
	if ld.std == nil {
		ld.std = importer.Default()
	}
	pkg, err := ld.std.Import(path)
	if err != nil {
		if ld.src == nil {
			ld.src = importer.ForCompiler(ld.prog.Fset, "source", nil)
		}
		pkg, err = ld.src.Import(path)
		if err != nil {
			return nil, fmt.Errorf("import %q: %w", path, err)
		}
	}
	ld.stdPkgs[path] = pkg
	return pkg, nil
}

// load parses and type-checks one local package (memoized).
func (ld *loader) load(path string) (*PackageInfo, error) {
	if pi, ok := ld.loaded[path]; ok {
		return pi, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	dir := ld.local[path]
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !ld.cfg.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	pkgName := ""
	for _, name := range names {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(ld.prog.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if excludedByBuildTag(f) {
			continue
		}
		// _test.go files of an external test package (package foo_test)
		// belong to a different package; keep only the primary one.
		if pkgName == "" && !strings.HasSuffix(name, "_test.go") {
			pkgName = f.Name.Name
		}
		if pkgName != "" && f.Name.Name != pkgName {
			continue
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("package %q: no buildable Go files in %s", path, dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.prog.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %q: %w", path, err)
	}
	pi := &PackageInfo{PkgPath: path, Dir: dir, Files: files, Pkg: pkg, Info: info}
	ld.loaded[path] = pi
	ld.prog.Packages = append(ld.prog.Packages, pi)
	ld.prog.byTypes[pkg] = pi
	return pi, nil
}

// excludedByBuildTag reports whether a file opts out of normal builds via a
// constraint mentioning "ignore". Full constraint evaluation is not needed
// for this repository; generators and one-off scripts use exactly this tag.
func excludedByBuildTag(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//go:build") && strings.Contains(c.Text, "ignore") {
				return true
			}
		}
	}
	return false
}
