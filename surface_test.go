package edacloud

import (
	"bufio"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// surfaceTrees hold every program of the repository. bench/ is a module
// of its own (edacloud/bench), so the root's go list never reaches it.
// It counts as a caller only: the benchmark harness changes only
// together with the benchmark.
var surfaceTrees = []string{"internal", "cmd", "examples", "bench"}

// TestOnlyWhatAProgramCalls fails when a package-level function,
// method, type, constant or variable under internal/, cmd/ or examples/
// is used by no non-test file of surfaceTrees, unless
// testdata/surface.allow names it with a reason. Such a name belongs in
// its package's _test.go files, or nowhere. An allowlist entry that a
// program uses, or that no longer exists, fails too. A method counts as
// used when its receiver implements an interface that declares it;
// struct fields are not checked.
//
// The test parses every non-test file itself, so Go's test cache, which
// keys on the files the test process opens, re-runs it after any source
// edit. Imports are type-checked from go list's export data.
func TestOnlyWhatAProgramCalls(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parseTrees(fset)
	if err != nil {
		t.Fatal(err)
	}
	exports, err := exportData()
	if err != nil {
		t.Fatal(err)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("go list gave no export data for %q", path)
		}
		return os.Open(file)
	})

	s := newSurface()
	for _, p := range pkgs {
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.path, fset, p.files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.path, err)
		}
		p.types, p.info = tp, info
		if !p.callerOnly {
			s.declare(p)
		}
	}
	for _, p := range pkgs {
		s.use(p)
	}
	got := s.unused(pkgs)

	allow, err := readAllowlist(filepath.Join("testdata", "surface.allow"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if _, ok := allow[name]; !ok {
			t.Errorf("%s: no non-test file uses it; delete it, move it into its package's _test.go files, or allowlist it in testdata/surface.allow with a reason", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(allow)) {
		switch {
		case slices.Contains(got, name):
		case s.declared[name] == nil:
			t.Errorf("testdata/surface.allow: %s no longer exists; drop its line", name)
		default:
			t.Errorf("testdata/surface.allow: a program uses %s now; drop its line", name)
		}
	}
}

// surfacePkg is one package directory of the program trees.
type surfacePkg struct {
	path       string // import path
	callerOnly bool   // under bench/
	files      []*ast.File
	types      *types.Package
	info       *types.Info
}

// parseTrees parses every non-test .go file under surfaceTrees, one
// package per directory, skipping testdata.
func parseTrees(fset *token.FileSet) ([]*surfacePkg, error) {
	byDir := map[string]*surfacePkg{}
	var pkgs []*surfacePkg
	for _, tree := range surfaceTrees {
		err := filepath.WalkDir(tree, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			dir := filepath.Dir(path)
			p := byDir[dir]
			if p == nil {
				p = &surfacePkg{path: "edacloud/" + filepath.ToSlash(dir), callerOnly: tree == "bench"}
				byDir[dir] = p
				pkgs = append(pkgs, p)
			}
			p.files = append(p.files, f)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// exportData maps each import path that the root module or bench/
// depends on to its export data file, building what is stale.
func exportData() (map[string]string, error) {
	exports := map[string]string{}
	for _, dir := range []string{".", "bench"} {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Export", "./...")
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		dec := json.NewDecoder(out)
		for {
			var p struct{ ImportPath, Export string }
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
	}
	return exports, nil
}

// readAllowlist reads "name reason" lines; blank lines and lines
// starting with # are skipped, and a name without a reason is an error.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

// surface is the scan's state: every declared name and which are used.
type surface struct {
	declared map[string]types.Object
	keys     map[types.Object]string
	// own is the source span of each declaration; a use inside its own
	// declaration (recursion, a self-referencing type) does not count.
	own map[types.Object][2]token.Pos
	// receivers are the positions of method receiver type names, which
	// do not count as uses of the type.
	receivers map[token.Pos]bool
	used      map[string]bool
}

func newSurface() *surface {
	return &surface{
		declared:  map[string]types.Object{},
		keys:      map[types.Object]string{},
		own:       map[types.Object][2]token.Pos{},
		receivers: map[token.Pos]bool{},
		used:      map[string]bool{},
	}
}

// surfaceKey names a package-level object or method as
// "internal/mckp.Solve" or "internal/mckp.Scratch.take".
func surfaceKey(obj types.Object) string {
	pkg := strings.TrimPrefix(obj.Pkg().Path(), "edacloud/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return pkg + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return pkg + "." + obj.Name()
}

// declare records p's package-level objects and the methods of its
// named types.
func (s *surface) declare(p *surfacePkg) {
	add := func(obj types.Object) {
		key := surfaceKey(obj)
		s.declared[key] = obj
		s.keys[obj] = key
	}
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if name == "_" || name == "init" || (name == "main" && p.types.Name() == "main") {
			continue
		}
		add(obj)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for m := range named.Methods() {
					add(m)
				}
			}
		}
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if obj := p.info.Defs[d.Name]; obj != nil {
					s.own[obj] = [2]token.Pos{d.Pos(), d.End()}
				}
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							s.receivers[id.Pos()] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if obj := p.info.Defs[ts.Name]; obj != nil {
							s.own[obj] = [2]token.Pos{ts.Pos(), ts.End()}
						}
					}
				}
			}
		}
	}
}

// use marks every object that p's files refer to.
func (s *surface) use(p *surfacePkg) {
	for id, obj := range p.info.Uses {
		if obj.Pkg() == nil || s.receivers[id.Pos()] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		key, ok := s.keys[obj]
		if !ok {
			if obj.Pkg() == p.types {
				continue // a local name
			}
			key = surfaceKey(obj) // imported from export data
		}
		if span, ok := s.own[obj]; ok && span[0] <= id.Pos() && id.Pos() < span[1] {
			continue
		}
		s.used[key] = true
	}
}

// unused lists the declared names that nothing uses, in order. A method
// whose receiver implements an interface that declares it is used.
func (s *surface) unused(pkgs []*surfacePkg) []string {
	ifaces := interfaces(pkgs)
	var out []string
	for key, obj := range s.declared {
		if s.used[key] || implementsSome(obj, ifaces) {
			continue
		}
		out = append(out, key)
	}
	slices.Sort(out)
	return out
}

// interfaces indexes by method name every method-set interface that the
// packages declare, mention or import, and error.
func interfaces(pkgs []*surfacePkg) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for m := range it.Methods() {
			byName[m.Name()] = append(byName[m.Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return byName
}

// implementsSome reports whether obj is a method whose receiver type,
// or a pointer to it, implements an interface that declares it.
func implementsSome(obj types.Object, ifaces map[string][]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return false
	}
	recv := fn.Signature().Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range ifaces[fn.Name()] {
		if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}
