// The reachability guard: deleted code stays deleted.
//
// TestReachable parses every non-test .go file of the module with go/parser
// (no type checking) and fails on
//   - an exported top-level func, type, var or const that no non-test file
//     references,
//   - an unexported top-level func that its own package never references,
//   - a package that no non-test file imports (test support such as
//     internal/analysis/analysistest needs an allowlist line),
//   - an allowlist line whose symbol or package is gone or now reached.
//
// bench/ is a module of its own; its files count as referrers only. Methods
// are not guarded: a method may be reached through an interface, which a
// parser cannot see. The allowlist, testdata/reach/allow.txt, holds one
// "pkg.Name — reason" or "pkg — reason" line per kept symbol or package,
// where pkg is the module-relative directory.
package bxsoap

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestReachable(t *testing.T) {
	start := time.Now()
	got, err := unreachable(".", "testdata/reach/allow.txt", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range got {
		t.Errorf("%s (%s)", f, f.pos)
	}
	if len(got) > 0 {
		t.Log("delete the code, or add a line with the reason it stays to testdata/reach/allow.txt")
	}
	t.Logf("scanned in %v", time.Since(start))
}

// TestReachableFixture proves the guard can fail: the fixture holds one dead
// exported func, one dead unexported func (both called from its tests), one
// allowlisted symbol and one stale allowlist line.
func TestReachableFixture(t *testing.T) {
	got, err := unreachable("testdata/reach/fixture", "testdata/reach/fixture/allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, f := range got {
		lines = append(lines, f.String())
	}
	want := []string{
		"a.Dead: exported func with no non-test reference",
		"a.Gone: stale allowlist line: no such symbol",
		"a.deadLocal: unexported func its package never references",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

// TestReachableFindings covers each rule of the guard on a small module
// written to a temporary directory. Every case starts from a base module
// where main calls a.Used; files and allowlist lines are added on top, and
// referrers names directories scanned as referrers only.
func TestReachableFindings(t *testing.T) {
	base := map[string]string{
		"go.mod":  "module m\n\ngo 1.22\n",
		"main.go": "package main\n\nimport \"m/a\"\n\nfunc main() { a.Used() }\n",
		"a/a.go":  "package a\n\nfunc Used() {}\n",
	}
	cases := []struct {
		name      string
		files     map[string]string
		allow     string
		referrers []string
		want      []string // findings, sorted by key
		wantErr   bool
	}{
		{name: "clean"},
		{
			name:  "dead exported type",
			files: map[string]string{"a/t.go": "package a\n\ntype T int\n"},
			want:  []string{"a.T: exported type with no non-test reference"},
		},
		{
			name:  "dead exported var",
			files: map[string]string{"a/v.go": "package a\n\nvar V, w = 1, 2\n"},
			want:  []string{"a.V: exported var with no non-test reference"},
		},
		{
			name:  "dead exported const",
			files: map[string]string{"a/c.go": "package a\n\nconst (\n\tC = iota\n\t_\n)\n"},
			want:  []string{"a.C: exported const with no non-test reference"},
		},
		{
			name:  "package with no importer",
			files: map[string]string{"b/b.go": "package b\n\nfunc B() {}\n"},
			want:  []string{"b: package with no importer"},
		},
		{
			name: "package imported only from tests",
			files: map[string]string{
				"b/b.go":      "package b\n\nfunc B() {}\n",
				"a/a_test.go": "package a\n\nimport \"m/b\"\n\nvar _ = b.B\n",
			},
			want: []string{"b: package imported only from tests"},
		},
		{
			name:  "allowlisted package",
			files: map[string]string{"b/b.go": "package b\n\nfunc B() {}\n"},
			allow: "b — test support\n",
		},
		{
			name:  "stale package line: now imported",
			allow: "a — was test support\n",
			want:  []string{"a: stale allowlist line: now imported"},
		},
		{
			name:  "stale symbol line: now referenced",
			allow: "a.Used — was kept\n",
			want:  []string{"a.Used: stale allowlist line: now referenced"},
		},
		{
			name:  "stale lines: gone",
			allow: "# comment\n\ngone — was a package\na.Gone — was a symbol\n",
			want: []string{
				"a.Gone: stale allowlist line: no such symbol",
				"gone: stale allowlist line: no such package",
			},
		},
		{
			name: "methods are not guarded",
			files: map[string]string{
				"a/a.go": "package a\n\ntype S struct{}\n\nfunc (S) M() {}\n\nfunc Used() { var s S; _ = s }\n",
			},
		},
		{
			name: "recursion is not a reference",
			files: map[string]string{
				"a/r.go": "package a\n\nfunc loop(n int) {\n\tif n > 0 {\n\t\tloop(n - 1)\n\t}\n}\n",
			},
			want: []string{"a.loop: unexported func its package never references"},
		},
		{
			name: "declared names are not references",
			files: map[string]string{
				"a/a.go": "package a\n\ntype S struct{ helper int }\n\n" +
					"func Used() {\n\tvar s S\n\t_ = s\n\tvar f func(helper int)\n\t_ = f\n}\n\n" +
					"func helper() {}\n",
			},
			want: []string{"a.helper: unexported func its package never references"},
		},
		{
			name: "renamed import",
			files: map[string]string{
				"main.go": "package main\n\nimport x \"m/a\"\n\nfunc main() { x.Used() }\n",
			},
		},
		{
			name: "nested module is not scanned",
			files: map[string]string{
				"a/e.go":     "package a\n\nfunc Extra() {}\n",
				"ext/go.mod": "module m/ext\n",
				"ext/ext.go": "package ext\n\nimport \"m/a\"\n\nvar _ = a.Extra\n",
			},
			want: []string{"a.Extra: exported func with no non-test reference"},
		},
		{
			name: "referrer directory references count",
			files: map[string]string{
				"a/e.go":     "package a\n\nfunc Extra() {}\n",
				"ext/go.mod": "module m/ext\n",
				"ext/ext.go": "package ext\n\nimport \"m/a\"\n\nvar _ = a.Extra\n\nfunc Own() {}\n",
			},
			referrers: []string{"ext"},
		},
		{
			name:    "allowlist line without reason",
			allow:   "a.Used\n",
			wantErr: true,
		},
		{
			name:    "allowlist line listed twice",
			allow:   "b — one\nb — two\n",
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			files := map[string]string{"allow.txt": tc.allow}
			for name, body := range base {
				files[name] = body
			}
			for name, body := range tc.files {
				files[name] = body
			}
			for name, body := range files {
				p := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, err := unreachable(root, filepath.Join(root, "allow.txt"), tc.referrers...)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("no error; findings %v", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, f := range got {
				lines = append(lines, f.String())
			}
			if strings.Join(lines, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}

type reachFinding struct {
	key, why string
	pos      string
}

func (f reachFinding) String() string { return f.key + ": " + f.why }

type reachPkg struct {
	name  string
	main  bool
	decls map[string]reachDecl
	refs  map[string]bool // names referenced from non-test files
	// imported counts non-test importers, testImported test-file ones.
	imported, testImported int
}

type reachDecl struct {
	kind string
	pos  token.Position
}

type reachFile struct {
	dir      string // module-relative directory
	test     bool
	referrer bool // outside the module: contributes references only
	f        *ast.File
}

// unreachable scans the module rooted at root, plus the referrer
// directories (relative to root), and returns its findings sorted by key.
func unreachable(root, allowPath string, referrers ...string) ([]reachFinding, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []reachFile
	walk := func(top string, referrer bool) error {
		return filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				n := d.Name()
				if n == "testdata" || (len(n) > 1 && (n[0] == '.' || n[0] == '_')) {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil && p != filepath.Join(root, top) {
					return filepath.SkipDir // another module
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, filepath.Dir(p))
			files = append(files, reachFile{filepath.ToSlash(rel), strings.HasSuffix(p, "_test.go"), referrer, f})
			return nil
		})
	}
	if err := walk(".", false); err != nil {
		return nil, err
	}
	for _, r := range referrers {
		if err := walk(r, true); err != nil {
			return nil, err
		}
	}

	pkgs := map[string]*reachPkg{}
	pkgOf := func(dir string) *reachPkg {
		p := pkgs[dir]
		if p == nil {
			p = &reachPkg{decls: map[string]reachDecl{}, refs: map[string]bool{}}
			pkgs[dir] = p
		}
		return p
	}
	for _, rf := range files {
		if rf.referrer || rf.test {
			continue
		}
		p := pkgOf(rf.dir)
		p.name = rf.f.Name.Name
		p.main = p.name == "main"
		for _, d := range rf.f.Decls {
			collectDecls(fset, d, p.decls)
		}
	}

	for _, rf := range files {
		imports := map[string]string{} // local name → module-relative dir
		for _, imp := range rf.f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(ip, mod+"/") {
				continue
			}
			dir := strings.TrimPrefix(ip, mod+"/")
			target := pkgs[dir]
			if target == nil {
				continue
			}
			if rf.test {
				target.testImported++
				continue
			}
			target.imported++
			name := target.name
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		if rf.test {
			continue
		}
		own := &reachPkg{refs: map[string]bool{}} // a referrer's own names are not guarded
		if !rf.referrer {
			own = pkgOf(rf.dir)
		}
		for _, d := range rf.f.Decls {
			collectRefs(d, own, imports, pkgs)
		}
	}

	allow, err := readAllowlist(allowPath)
	if err != nil {
		return nil, err
	}
	var out []reachFinding
	for dir, p := range pkgs {
		if _, ok := allow[dir]; ok {
			delete(allow, dir)
			if p.main || p.imported > 0 {
				out = append(out, reachFinding{dir, "stale allowlist line: now imported", allowPath})
			}
			continue
		}
		orphan := !p.main && dir != "." && p.imported == 0
		if orphan {
			why := "package with no importer"
			if p.testImported > 0 {
				why = "package imported only from tests"
			}
			out = append(out, reachFinding{dir, why, dir})
		}
		for name, d := range p.decls {
			key := dir + "." + name
			if _, ok := allow[key]; ok {
				delete(allow, key)
				if p.refs[name] {
					out = append(out, reachFinding{key, "stale allowlist line: now referenced", allowPath})
				}
				continue
			}
			switch {
			case p.refs[name]:
			case token.IsExported(name) && !orphan:
				out = append(out, reachFinding{key, "exported " + d.kind + " with no non-test reference", d.pos.String()})
			case !token.IsExported(name):
				out = append(out, reachFinding{key, "unexported func its package never references", d.pos.String()})
			}
		}
	}
	for key := range allow {
		why := "stale allowlist line: no such symbol"
		if _, ok := pkgs[key]; !ok && !strings.Contains(path.Base(key), ".") {
			why = "stale allowlist line: no such package"
		}
		out = append(out, reachFinding{key, why, allowPath})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// collectDecls records the top-level names the guard checks: exported
// funcs, types, vars and consts, and unexported funcs.
func collectDecls(fset *token.FileSet, d ast.Decl, into map[string]reachDecl) {
	add := func(id *ast.Ident, kind string) {
		if id.Name != "_" {
			into[id.Name] = reachDecl{kind, fset.Position(id.Pos())}
		}
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && d.Name.Name != "main" && d.Name.Name != "init" {
			add(d.Name, "func")
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					add(s.Name, "type")
				}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					if id.IsExported() {
						add(id, d.Tok.String())
					}
				}
			}
		}
	}
}

// collectRefs marks every name a declaration refers to: a bare identifier
// in own, a qualified pkg.Name in the imported package. Declared names
// (fields, parameters, locals), method receivers and a declaration's
// references to itself are not references.
func collectRefs(d ast.Decl, own *reachPkg, imports map[string]string, pkgs map[string]*reachPkg) {
	self := ""
	var visit func(n ast.Node) bool
	inspect := func(n ast.Node) {
		if n != nil {
			ast.Inspect(n, visit)
		}
	}
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if n.Name != self {
				own.refs[n.Name] = true
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if dir, ok := imports[x.Name]; ok {
					pkgs[dir].refs[n.Sel.Name] = true
					return false
				}
			}
			inspect(n.X)
			return false
		case *ast.Field:
			inspect(n.Type)
			return false
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Rhs {
					inspect(e)
				}
				return false
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				inspect(n.X)
				inspect(n.Body)
				return false
			}
		case *ast.ValueSpec:
			inspect(n.Type)
			for _, e := range n.Values {
				inspect(e)
			}
			return false
		case *ast.TypeSpec:
			if n.TypeParams != nil {
				inspect(n.TypeParams)
			}
			inspect(n.Type)
			return false
		case *ast.LabeledStmt:
			inspect(n.Stmt)
			return false
		case *ast.BranchStmt:
			return false
		}
		return true
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			self = d.Name.Name
		}
		inspect(d.Type)
		if d.Body != nil {
			inspect(d.Body)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				self = s.Name.Name
				inspect(s)
			case *ast.ValueSpec:
				self = ""
				inspect(s)
			}
		}
	}
}

func modulePath(goMod string) (string, error) {
	b, err := os.ReadFile(goMod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", goMod)
}

// readAllowlist parses "key — reason" lines; blank lines and # comments are
// skipped. Every line needs a reason.
func readAllowlist(name string) (map[string]string, error) {
	f, err := os.Open(name)
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
		key, reason, ok := strings.Cut(line, "—")
		key, reason = strings.TrimSpace(key), strings.TrimSpace(reason)
		if !ok || key == "" || reason == "" {
			return nil, fmt.Errorf("%s:%d: want \"pkg.Name — reason\"", name, n)
		}
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", name, n, key)
		}
		allow[key] = reason
	}
	return allow, sc.Err()
}
