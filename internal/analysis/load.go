package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks one package directory at a time using
// only the standard library: go/parser for syntax and go/types with a
// two-stage importer — module-local import paths are resolved against
// the module root on disk, everything else falls through to the
// compiler's source importer (GOROOT). No go/packages, no export data.
//
// Load problems never abort the run: an unparseable file, a missing
// import, or a type-check failure is reported as a [lint] diagnostic on
// the offending position and the rest of the package is still analyzed
// with whatever Info the checker managed to compute. A broken package
// therefore fails `make lint` loudly (exit 1 with an addressable
// finding) instead of either crashing the whole pass or being silently
// skipped.
type Loader struct {
	Fset *token.FileSet

	moduleRoot string
	modulePath string
	std        types.Importer
	cache      map[string]*types.Package
	loading    map[string]bool
}

// NewLoader builds a Loader rooted at moduleRoot. When moduleRoot holds
// a go.mod its module path seeds local-import resolution; without one
// (fixture trees) every import resolves through the source importer.
func NewLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:       token.NewFileSet(),
		moduleRoot: abs,
		cache:      make(map[string]*types.Package),
		loading:    make(map[string]bool),
	}
	if data, err := os.ReadFile(filepath.Join(abs, "go.mod")); err == nil {
		l.modulePath = moduleLine(string(data))
	}
	// The source importer type-checks dependencies from GOROOT source;
	// force the pure-Go build so cgo-flavoured files (net, os/user)
	// never enter the load.
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	return l, nil
}

// moduleLine extracts the module path from go.mod content.
func moduleLine(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// Import implements types.Importer over the two-stage resolution.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.modulePath != "" && (path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")) {
		return l.importLocal(path)
	}
	return l.std.Import(path)
}

// importLocal type-checks a module-local package (without Info) for use
// as a dependency, with caching and cycle detection.
func (l *Loader) importLocal(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.moduleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modulePath+"/")))
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{Importer: l, Error: func(error) {}}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if pkg == nil {
		return nil, err
	}
	// Cache even on partial success: a dependency with type errors still
	// carries most of its declarations, which beats dropping the import.
	pkg.MarkComplete()
	l.cache[path] = pkg
	return pkg, nil
}

// parseDir parses every non-test Go file in dir, sorted by filename for
// deterministic diagnostics.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// maxTypeDiags caps how many type-check failures one package reports:
// a single missing import cascades into dozens of follow-on errors, and
// the first few are the addressable ones.
const maxTypeDiags = 10

// Load parses and type-checks the package in dir with full Info for
// analysis. It returns nil (no error) for directories with no non-test
// Go files. Parse and type-check failures do not abort the load; they
// are recorded as [lint] diagnostics on the returned Pass and the
// analyzers run over whatever syntax and type information survived.
func (l *Loader) Load(dir string) (*Pass, error) {
	files, loadDiags, err := l.parseDirLenient(dir)
	if err != nil {
		return nil, err
	}
	pkgPath := l.pkgPath(dir)
	if len(files) == 0 {
		if len(loadDiags) == 0 {
			return nil, nil
		}
		// Every file was unparseable: no analysis possible, but the parse
		// diagnostics must still fail the run.
		return &Pass{Fset: l.Fset, PkgPath: pkgPath, diags: loadDiags}, nil
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	// Type-check failures (a missing import, an unresolved identifier, a
	// mistyped expression) become [lint] diagnostics: the checker keeps
	// going and analyzers work from the partial Info, but the run fails
	// loudly instead of silently degrading to syntax-only checks.
	var typeDiags []Diagnostic
	truncated := 0
	seen := make(map[string]bool)
	conf := types.Config{Importer: l, Error: func(err error) {
		te, ok := err.(types.Error)
		if !ok {
			return
		}
		// Continuation lines of a multi-part error start with a tab.
		if strings.HasPrefix(te.Msg, "\t") {
			return
		}
		pos := te.Fset.Position(te.Pos)
		key := fmt.Sprintf("%s:%d:%d %s", pos.Filename, pos.Line, pos.Column, te.Msg)
		if seen[key] {
			return
		}
		seen[key] = true
		if len(typeDiags) >= maxTypeDiags {
			truncated++
			return
		}
		typeDiags = append(typeDiags, Diagnostic{
			Pos: pos, Rule: "lint", Message: "type-check failed: " + te.Msg,
		})
	}}
	// Check returns the package even when it accumulated type errors;
	// analyzers work from whatever Info was computed.
	pkg, _ := conf.Check(pkgPath, l.Fset, files, info)
	if truncated > 0 {
		typeDiags = append(typeDiags, Diagnostic{
			Pos:     typeDiags[len(typeDiags)-1].Pos,
			Rule:    "lint",
			Message: fmt.Sprintf("type-check failed: %d further errors in this package not shown", truncated),
		})
	}
	// Seed the dependency cache with the freshly checked package — but
	// never replace an instance already vended to importers. Overwriting
	// would split the identity of every type the package declares: a
	// dependent checked earlier holds *old geom.Path while a dependent
	// checked later resolves *new geom.Path, and the checker reports the
	// nonsensical `cannot use x (*geom.Path) as *geom.Path` on perfectly
	// good code (found by PR 7's audit once type errors stopped being
	// swallowed).
	if pkg != nil && strings.HasPrefix(pkgPath, l.modulePath+"/") {
		if _, vended := l.cache[pkgPath]; !vended {
			pkg.MarkComplete()
			l.cache[pkgPath] = pkg
		}
	}
	return &Pass{
		Fset: l.Fset, Files: files, Pkg: pkg, Info: info, PkgPath: pkgPath,
		diags: append(loadDiags, typeDiags...),
	}, nil
}

// parseDirLenient parses every non-test Go file in dir like parseDir,
// but converts per-file syntax errors into [lint] diagnostics (first
// error per file — the rest is cascade) and skips the unparseable file
// instead of failing the whole package.
func (l *Loader) parseDirLenient(dir string) ([]*ast.File, []Diagnostic, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	var diags []Diagnostic
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
		if err != nil {
			diags = append(diags, parseDiag(path, err))
			continue
		}
		files = append(files, f)
	}
	return files, diags, nil
}

// parseDiag converts a parser error into a positioned [lint]
// diagnostic. parser.ParseFile reports a scanner.ErrorList; its first
// entry carries the real position and message, the rest is cascade.
func parseDiag(path string, err error) Diagnostic {
	if list, ok := err.(scanner.ErrorList); ok && len(list) > 0 {
		return Diagnostic{
			Pos: list[0].Pos, Rule: "lint", Message: "parse failed: " + list[0].Msg,
		}
	}
	return Diagnostic{
		Pos: token.Position{Filename: path}, Rule: "lint", Message: "parse failed: " + err.Error(),
	}
}

// pkgPath derives an import-path-shaped identifier for dir.
func (l *Loader) pkgPath(dir string) string {
	abs, err := filepath.Abs(dir)
	if err == nil {
		if rel, err := filepath.Rel(l.moduleRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
			if rel == "." {
				if l.modulePath != "" {
					return l.modulePath
				}
				return filepath.Base(abs)
			}
			prefix := l.modulePath
			if prefix == "" {
				prefix = "fixture"
			}
			return prefix + "/" + filepath.ToSlash(rel)
		}
	}
	return filepath.Base(dir)
}

// LintDir loads the package in dir and runs the analyzers over it,
// returning surviving diagnostics in position order. A nil slice with a
// nil error means the directory holds no lintable files.
func (l *Loader) LintDir(dir string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pass, err := l.Load(dir)
	if err != nil || pass == nil {
		return nil, err
	}
	return run(pass, analyzers), nil
}
