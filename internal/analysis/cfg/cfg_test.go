package cfg

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden builds the CFG of every function in testdata/funcs.go — loops,
// defer, select, method values, goroutine closures, switches with
// fallthrough and goto — and compares the formatted graph against
// testdata/<name>.golden. Function literals get their own graphs (named
// <func>.func1), exactly as the analyzers build them.
func TestGolden(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filepath.Join("testdata", "funcs.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	type fn struct {
		name string
		body *ast.BlockStmt
	}
	var fns []fn
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fns = append(fns, fn{fd.Name.Name, fd.Body})
		lit := 0
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				lit++
				fns = append(fns, fn{fd.Name.Name + ".func" + itoa(lit), fl.Body})
			}
			return true
		})
	}
	if len(fns) == 0 {
		t.Fatal("no functions in corpus")
	}
	for _, f := range fns {
		t.Run(f.name, func(t *testing.T) {
			got := format(New(f.body), fset)
			golden := filepath.Join("testdata", f.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if got != string(want) {
				t.Errorf("CFG mismatch for %s:\n--- got ---\n%s--- want ---\n%s", f.name, got, want)
			}
		})
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + itoa(n%10)
}

// TestReaches exercises reachability over a guarded infinite loop: the exit
// block is reachable only through the select's done arm.
func TestReaches(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p
func f(done chan struct{}) {
	for {
		select {
		case <-done:
			return
		default:
		}
	}
}`
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := New(file.Decls[0].(*ast.FuncDecl).Body)
	if !reaches(g, g.Entry, g.Exit) {
		t.Fatal("exit should be reachable via the done arm")
	}
	// The for.done block of a condition-free loop has no predecessors: the
	// only way out is the return.
	for _, blk := range g.Blocks {
		if blk.Kind == "for.done" {
			for _, other := range g.Blocks {
				for _, s := range other.Succs {
					if s == blk {
						t.Fatalf("for.done unexpectedly has predecessor b%d", other.Index)
					}
				}
			}
		}
	}
}

// reaches reports whether to is reachable from from along Succs edges.
func reaches(g *CFG, from, to *Block) bool {
	seen := make([]bool, len(g.Blocks))
	stack := []*Block{from}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if blk == to {
			return true
		}
		if seen[blk.Index] {
			continue
		}
		seen[blk.Index] = true
		stack = append(stack, blk.Succs...)
	}
	return false
}

// format renders the graph as stable text for the golden files: one block
// per stanza with its kind, operations, and successor edges.
//
//	b3 for.head: -> b4 b5
//	    i < n
func format(g *CFG, fset *token.FileSet) string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "b%d %s:", blk.Index, blk.Kind)
		if len(blk.Succs) == 0 {
			sb.WriteString(" (terminal)")
		} else {
			sb.WriteString(" ->")
			for _, s := range blk.Succs {
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteByte('\n')
		for _, n := range blk.Nodes {
			fmt.Fprintf(&sb, "    %s\n", summarize(fset, n))
		}
	}
	return sb.String()
}

// summarize renders one operation on one line, whitespace-collapsed and
// truncated; multi-line operations (a go statement with a literal body)
// flatten onto the line.
func summarize(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, fset, n)
	s := strings.Join(strings.Fields(buf.String()), " ")
	const max = 80
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}
