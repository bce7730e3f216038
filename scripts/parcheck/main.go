// Command parcheck is the repo's go-vet-adjacent guard for the two ways
// cancellation and failures silently vanish:
//
//   - A par loop whose error result is discarded, either as a bare
//     expression statement or assigned to the blank identifier
//     (solver.AnnealRestartsCtx once shipped exactly that bug). A comment
//     containing "par:" on the same line or ending on the line directly
//     above the call marks a discard as audited, e.g.
//
//     // par: discard ok — the block fn never errors and no context is
//     // threaded here.
//     _ = par.For(blocks, func(b int) error { ... })
//
//   - A context.Background() or context.TODO() call in a non-test Go file
//     under an internal/ directory: library code takes the caller's
//     context, so a fresh root context there cuts the caller's deadline
//     off from everything below it. A comment containing "ctx:" on the
//     same line or ending on the line directly above marks a deliberate
//     root context and says why it is one.
//
// Usage: go run ./scripts/parcheck [dirs...]   (default ".")
// Exits 1 if any unannotated finding is reported.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// errResultIndex maps each par entry point to the position of its error
// result, so multi-result functions (MapCtx) are checked at the right slot.
var errResultIndex = map[string]int{
	"For": 0, "ForCtx": 0, "ForWorkerCtx": 0, "MapCtx": 1,
}

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	bad, err := run(roots, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "parcheck:", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "parcheck: %d finding(s); annotate a deliberate par discard with a \"par:\" comment and a deliberate root context with a \"ctx:\" comment\n", bad)
		os.Exit(1)
	}
}

// run checks every .go file under roots, skipping testdata, vendor and
// dot directories, reports each finding to w and returns their count.
func run(roots []string, w io.Writer) (int, error) {
	bad := 0
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") && name != "." {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			n, err := checkFile(path, w)
			bad += n
			return err
		})
		if err != nil {
			return bad, err
		}
	}
	return bad, nil
}

func checkFile(path string, w io.Writer) (int, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return 0, err
	}
	parOK := markedLines(fset, f, "par:")
	ctxOK := markedLines(fset, f, "ctx:")
	// The context rule covers non-test files with an internal/ directory
	// among their path elements.
	ctxRule := strings.Contains("/"+filepath.ToSlash(path), "/internal/") && !strings.HasSuffix(path, "_test.go")
	bad := 0
	report := func(ok map[int]bool, pos token.Pos, what string) {
		p := fset.Position(pos)
		if ok[p.Line] {
			return
		}
		fmt.Fprintf(w, "%s:%d: %s\n", path, p.Line, what)
		bad++
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			if name, ok := pkgCall(st, "context"); ok && ctxRule && (name == "Background" || name == "TODO") {
				report(ctxOK, st.Pos(), "context."+name+"() in library code drops the caller's context")
			}
		case *ast.ExprStmt:
			if name, ok := parCall(st.X); ok {
				report(parOK, st.Pos(), "result of par."+name+" discarded (bare call)")
			}
		case *ast.AssignStmt:
			if len(st.Rhs) != 1 {
				return true
			}
			name, ok := parCall(st.Rhs[0])
			if !ok {
				return true
			}
			idx := errResultIndex[name]
			if idx >= len(st.Lhs) {
				return true
			}
			if id, isIdent := st.Lhs[idx].(*ast.Ident); isIdent && id.Name == "_" {
				report(parOK, st.Pos(), "error of par."+name+" assigned to _")
			}
		}
		return true
	})
	return bad, nil
}

// markedLines returns the lines a marker comment governs: every line of
// a comment group containing marker, plus the line right after it (the
// call the comment sits above).
func markedLines(fset *token.FileSet, f *ast.File, marker string) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		if !strings.Contains(cg.Text(), marker) {
			continue
		}
		for l := fset.Position(cg.Pos()).Line; l <= fset.Position(cg.End()).Line+1; l++ {
			lines[l] = true
		}
	}
	return lines
}

// pkgCall reports the selected name if e is a call of the form
// pkg.<Name>(...).
func pkgCall(e ast.Expr, pkg string) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); !ok || id.Name != pkg {
		return "", false
	}
	return sel.Sel.Name, true
}

// parCall reports whether e is a call of the form par.<Name>(...) for a
// tracked Name.
func parCall(e ast.Expr) (string, bool) {
	name, ok := pkgCall(e, "par")
	if !ok {
		return "", false
	}
	if _, tracked := errResultIndex[name]; !tracked {
		return "", false
	}
	return name, true
}
