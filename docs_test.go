package iolap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
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
	// pkg.Name or pkg.Type.Member, and Type.Member with no package in front.
	citedPkgIdent  = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
	citedTypeIdent = regexp.MustCompile(`(?:^|[^\w.])([A-Z]\w*)\.([A-Za-z_]\w*)`)
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
// no non-test file references, each with the reason it stays. A key is a
// directory ("internal/x/"), a file, a type ("pkg.Type.") or one name
// ("pkg.Name", "pkg.Type.Name").
var orphanAllowed = map[string]string{
	"internal/wire/wiretest/":         "test support: the corruption table and fuzz harness every codec's tests instantiate",
	"internal/leakcheck/":             "test support: the goroutine-leak guard the root, cluster, core, serve and share TestMains run",
	"internal/delta/rules.go":         "the reference delta rules of Section 4.2 that the operators are tested against",
	"storage.FaultFS.":                "fault seam: the spill tests inject write and sync failures through it",
	"storage.NewFaultFS":              "fault seam (storage.FaultFS)",
	"storage.MemFS.Crash":             "fault seam: drops what was never synced, the crash the spill recovery tests replay",
	"exec.Executor.SetCutover":        "the fixed-cutover test hook: the execution lattice pins it to 1 to force every parallel path",
	"cluster.Metrics.SpillProbeSkips": "the spill tests assert the min-max filters' skip count, a schedule-independent number",
	"cluster.Metrics.SpillBloomSkips": "as SpillProbeSkips, for the per-run Bloom filters",
	"delta.HashStore.Each":            "the immutability and spill tests walk a store's rows, resident and spilled",
	"rel.Relation.AppendMult":         "fixture builder: a tuple with a multiplicity, for the core, exec, rel and workload tests",
	"rel.Relation.Card":               "bag cardinality, the invariant the Canon property test holds",
	"agg.Vector.AddRep":               "the per-entry fold that AddBatchRun's contract (agg/batch.go) is stated in",
}

// TestNoOrphanExports: every exported function or method declared in a
// non-test file under internal/ is referenced — by name, as a selector or as
// a same-package identifier — from some non-test file of the module or of
// bench/, or sits on orphanAllowed with the reason it stays. An export that
// only its own unit test calls is API nobody asked for; it is deleted with
// that test, not kept.
func TestNoOrphanExports(t *testing.T) {
	type decl struct{ file, dir, qual string }
	var decls []decl
	selUses := map[string]int{}              // x.Name, anywhere
	identUses := map[string]map[string]int{} // dir -> bare Name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if identUses[dir] == nil {
			identUses[dir] = map[string]int{}
		}
		declNames := map[*ast.Ident]bool{} // identifiers that are not bare uses
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(dir, "internal/") {
				continue
			}
			qual := file.Name.Name + "."
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					qual += id.Name + "."
				}
			}
			decls = append(decls, decl{file: filepath.ToSlash(path), dir: dir, qual: qual + fd.Name.Name})
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selUses[n.Sel.Name]++
				declNames[n.Sel] = true // visited before its children: not a bare identifier
			case *ast.Ident:
				if !declNames[n] {
					identUses[dir][n.Name]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, d := range decls {
		name := d.qual[strings.LastIndex(d.qual, ".")+1:]
		isMethod := strings.Count(d.qual, ".") == 2
		if selUses[name] > 0 || (!isMethod && identUses[d.dir][name] > 0) {
			continue
		}
		allowed := false
		for _, key := range []string{d.qual, d.qual[:len(d.qual)-len(name)], d.file, d.dir + "/"} {
			if _, ok := orphanAllowed[key]; ok {
				allowed, used[key] = true, true
			}
		}
		if !allowed {
			t.Errorf("%s: exported %s is referenced by no non-test file (delete it, or add it to orphanAllowed with the reason it stays)", d.file, d.qual)
		}
	}
	for key := range orphanAllowed {
		if !used[key] {
			t.Errorf("orphanAllowed[%q] excuses nothing any more: remove the entry", key)
		}
	}
}
