package iolap

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
	"regexp"
	"strings"
	"testing"
)

var (
	citedMake   = regexp.MustCompile("`make\\s+([a-z0-9-]+)")
	citedGoRun  = regexp.MustCompile(`go run \./([A-Za-z0-9_/-]+)`)
	packageMain = regexp.MustCompile(`(?m)^package main$`)
)

// TestDocsCiteExistingTools: a `make <target>` in the docs must be in the
// Makefile's .PHONY list and a `go run ./<path>` must name a directory
// holding a main package, so a deleted tool cannot stay cited as the source
// of a number.
func TestDocsCiteExistingTools(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, line := range strings.Split(string(mk), "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, f := range strings.Fields(rest) {
				targets[f] = true
			}
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citedMake.FindAllSubmatch(text, -1) {
			if !targets[string(m[1])] {
				t.Errorf("%s cites `make %s`, which is not a .PHONY target of the Makefile", doc, m[1])
			}
		}
		for _, m := range citedGoRun.FindAllSubmatch(text, -1) {
			if !hasMainPackage(string(m[1])) {
				t.Errorf("%s cites `go run ./%s`, which is not a directory with a main package", doc, m[1])
			}
		}
	}
}

func hasMainPackage(dir string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		if src, err := os.ReadFile(f); err == nil && packageMain.Match(src) {
			return true
		}
	}
	return false
}

var (
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	// pkg.Name or pkg.Type.Member, and Type.Member with no package in front,
	// the type exported or not.
	citedPkgIdent  = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
	citedTypeIdent = regexp.MustCompile(`(?:^|[^\w.])([A-Za-z]\w*)\.([A-Za-z_]\w*)`)
)

// pkgDecls maps a package's top-level identifiers to their members: the
// methods and fields of a type, nothing for a function, constant or variable.
type pkgDecls map[string]map[string]bool

func (d pkgDecls) member(typ, name string) {
	if d[typ] == nil {
		d[typ] = map[string]bool{}
	}
	d[typ][name] = true
}

// parseDecls reads the non-test files of one package directory.
func parseDecls(t *testing.T, dir string) pkgDecls {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := pkgDecls{}
	declare := func(name string) {
		if _, ok := d[name]; !ok {
			d[name] = nil
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil {
						declare(decl.Name.Name)
						continue
					}
					recv := decl.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						d.member(id.Name, decl.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								declare(n.Name)
							}
						case *ast.TypeSpec:
							declare(spec.Name.Name)
							var fields *ast.FieldList
							switch typ := spec.Type.(type) {
							case *ast.StructType:
								fields = typ.Fields
							case *ast.InterfaceType:
								fields = typ.Methods
							default:
								continue
							}
							for _, f := range fields.List {
								for _, n := range f.Names {
									d.member(spec.Name.Name, n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return d
}

// TestDocsCiteExistingIdentifiers: inside a code span of the docs, a
// `pkg.Name` whose pkg is a directory under internal/ must be an identifier
// that package declares, a `pkg.Type.Member` must also be a method or field
// of that type, and a bare `Type.Member` whose Type an internal package (or
// the root package) declares must be a member of it in at least one of them —
// so a deleted function, method or field cannot stay cited as if it existed.
func TestDocsCiteExistingIdentifiers(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	internal := map[string]pkgDecls{}
	for _, d := range dirs {
		if d.IsDir() {
			internal[d.Name()] = parseDecls(t, filepath.Join("internal", d.Name()))
		}
	}
	all := []pkgDecls{parseDecls(t, ".")}
	for _, d := range internal {
		all = append(all, d)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAll(text, -1) {
			span := string(span[1 : len(span)-1])
			for _, m := range citedPkgIdent.FindAllStringSubmatch(span, -1) {
				pkg, name, member := m[1], m[2], m[3]
				decls, ok := internal[pkg]
				if !ok {
					continue
				}
				if members, ok := decls[name]; !ok {
					t.Errorf("%s cites `%s.%s`, which internal/%s does not declare", doc, pkg, name, pkg)
				} else if member != "" && members != nil && !members[member] {
					t.Errorf("%s cites `%s.%s.%s`, but %s.%s has no such method or field", doc, pkg, name, member, pkg, name)
				}
			}
			for _, m := range citedTypeIdent.FindAllStringSubmatch(span, -1) {
				typ, member := m[1], m[2]
				declared, found := false, false
				for _, decls := range all {
					if members := decls[typ]; members != nil {
						declared = true
						found = found || members[member]
					}
				}
				if declared && !found {
					t.Errorf("%s cites `%s.%s`, but no package's %s has such a method or field", doc, typ, member, typ)
				}
			}
		}
	}
}

// orphanAllowed lists the exported functions and methods under internal/ that
// no non-test file uses, each with the reason it stays. A key is a
// directory ("internal/x/"), a file, a type ("pkg.Type.") or one name
// ("pkg.Name", "pkg.Type.Name").
var orphanAllowed = map[string]string{
	"internal/wire/wiretest/":  "test support: the corruption table and fuzz harness every codec's tests instantiate",
	"internal/leakcheck/":      "test support: the goroutine-leak guard the root, cluster, core, serve and share TestMains run",
	"internal/delta/rules.go":  "the reference delta rules of Section 4.2, kept beside the operators that implement them; only their own tests call them",
	"plan.Format":              "prints a failing plan: the lattice, fuzz and planner tests report with it",
	"storage.FaultFS.":         "fault seam: the spill tests inject write and sync failures through it",
	"storage.NewFaultFS":       "fault seam (storage.FaultFS)",
	"storage.MemFS.Crash":      "fault seam: drops what was never synced, the crash the spill recovery tests replay",
	"exec.Executor.SetCutover": "the fixed-cutover test hook: the execution lattice pins it to 1 to force every parallel path",
	"core.Engine.SetCutover":   "the fixed-cutover test hook: the execution lattice pins it to 1 to force every parallel path",
	"delta.HashStore.Each":     "the immutability and spill tests walk a store's rows, resident and spilled",
	"rel.Relation.AppendMult":  "fixture builder: a tuple with a multiplicity, for the core, exec, rel and workload tests",
	"rel.Relation.Card":        "bag cardinality, the invariant the Canon property test holds",
	"agg.Vector.AddRep":        "the per-entry fold that AddBatchRun's contract (agg/batch.go) is stated in",
}

// TestNoOrphanExports: every exported function or method declared in a
// non-test file under internal/ is used by some non-test file of the module
// or of bench/, or sits on orphanAllowed with the reason it stays. Uses are
// resolved with go/types over the packages `go list` names, so a method is
// used where a value of its own type calls it, not wherever a field or
// another type's method shares its name, and a function's calls inside its
// own body do not count. A method that satisfies an interface method is used
// when that interface method is; the methods of an interface declared in an
// imported package outside the module count as used, since their callers are
// in that package. An export that only its own unit test calls is API nobody
// asked for; it is deleted with that test, not kept.
func TestNoOrphanExports(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	im := &sourceImporter{checked: map[string]*types.Package{}, exports: map[string]string{}}
	im.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := im.exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	type decl struct {
		file, dir, qual string
		fn              *types.Func
		body            *ast.FuncDecl
	}
	var decls []decl
	for _, dir := range []string{".", "bench"} {
		for _, p := range listPackages(t, goTool, dir) {
			if p.Standard {
				im.exports[p.ImportPath] = p.Export
				continue
			}
			if im.checked[p.ImportPath] != nil {
				continue // a module package bench/ imports
			}
			var files []*ast.File
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			pkg, err := (&types.Config{Importer: im}).Check(p.ImportPath, fset, files, info)
			if err != nil {
				t.Fatalf("type-check %s: %v", p.ImportPath, err)
			}
			im.checked[p.ImportPath] = pkg
			rel, err := filepath.Rel(root, p.Dir)
			if err != nil {
				t.Fatal(err)
			}
			rel = filepath.ToSlash(rel)
			if !strings.HasPrefix(rel, "internal/") {
				continue
			}
			for k, f := range files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || !fd.Name.IsExported() {
						continue
					}
					qual := pkg.Name() + "."
					if fd.Recv != nil {
						recv := fd.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if id, ok := recv.(*ast.Ident); ok {
							qual += id.Name + "."
						}
					}
					decls = append(decls, decl{file: rel + "/" + p.GoFiles[k], dir: rel,
						qual: qual + fd.Name.Name, fn: info.Defs[fd.Name].(*types.Func), body: fd})
				}
			}
		}
	}
	declOf := map[*types.Func]*ast.FuncDecl{}
	for _, d := range decls {
		declOf[d.fn] = d.body
	}
	called := map[*types.Func]bool{}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if fd := declOf[fn]; fd != nil && fd.Pos() <= id.Pos() && id.Pos() < fd.End() {
			continue // recursion
		}
		called[fn] = true
	}
	// The interface methods that count as called: those the module or
	// bench/ calls, and those of interfaces declared in imported packages
	// outside the module.
	ifaceMethods := []*types.Func{types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0)}
	for fn := range called {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}
	seen := map[*types.Package]bool{}
	for _, pkg := range im.checked {
		for _, dep := range pkg.Imports() {
			if im.checked[dep.Path()] != nil || seen[dep] {
				continue
			}
			seen[dep] = true
			for _, name := range dep.Scope().Names() {
				tn, ok := dep.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
					for i := 0; i < iface.NumMethods(); i++ {
						ifaceMethods = append(ifaceMethods, iface.Method(i))
					}
				}
			}
		}
	}
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		for _, m := range ifaceMethods {
			if m.Name() != fn.Name() {
				continue
			}
			iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface) {
				return true
			}
		}
		return false
	}
	used := map[string]bool{}
	for _, d := range decls {
		if called[d.fn] || satisfies(d.fn) {
			continue
		}
		name := d.fn.Name()
		allowed := false
		for _, key := range []string{d.qual, d.qual[:len(d.qual)-len(name)], d.file, d.dir + "/"} {
			if _, ok := orphanAllowed[key]; ok {
				allowed, used[key] = true, true
			}
		}
		if !allowed {
			t.Errorf("%s: exported %s is used by no non-test file (delete it, or add it to orphanAllowed with the reason it stays)", d.file, d.qual)
		}
	}
	for key := range orphanAllowed {
		if !used[key] {
			t.Errorf("orphanAllowed[%q] excuses nothing any more: remove the entry", key)
		}
	}
}

// listedPackage is the part of a `go list -json` record TestNoOrphanExports
// reads.
type listedPackage struct {
	Dir, ImportPath, Export string
	GoFiles                 []string
	Standard                bool
}

// listPackages lists the packages of the module in dir and every package they
// import, dependencies first, with the export data of each.
func listPackages(t *testing.T, goTool, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command(goTool, "list", "-deps", "-export", "-json=Dir,ImportPath,Export,GoFiles,Standard", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("cd %s && go list: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// sourceImporter hands go/types the module's packages it has type-checked from
// source, and reads every other package from the export data go list built.
type sourceImporter struct {
	checked map[string]*types.Package
	exports map[string]string // import path -> export data file
	gc      types.Importer
}

func (im *sourceImporter) Import(path string) (*types.Package, error) {
	if p := im.checked[path]; p != nil {
		return p, nil
	}
	return im.gc.Import(path)
}
