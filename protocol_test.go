package urel_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOneRowProtocol pins that rows move between operators one way.
// It parses every non-test Go file of the module and fails if
// engine.Iterator is anything but {Open, NextBatch, Close, Schema}, if
// any type grows a per-tuple `Next() (Tuple, bool, error)`, or if one
// of the adapters that used to translate between protocols is declared
// again — so a second way to pull rows fails tier-1, not review.
func TestOneRowProtocol(t *testing.T) {
	banned := map[string]bool{"Batched": true, "Columnar": true, "batchAdapter": true, "rowColAdapter": true}
	var iteratorMethods []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			// benchmark/ is a module of its own; dot-directories hold no source.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") {
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
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if banned[d.Name.Name] {
					t.Errorf("%s: %s is declared again", fset.Position(d.Pos()), d.Name.Name)
				}
				if d.Recv != nil && d.Name.Name == "Next" && returnsTupleBoolError(d.Type) {
					t.Errorf("%s: per-tuple Next() (Tuple, bool, error) declared", fset.Position(d.Pos()))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if banned[ts.Name.Name] {
						t.Errorf("%s: %s is declared again", fset.Position(ts.Pos()), ts.Name.Name)
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					for _, m := range it.Methods.List {
						ft, isMethod := m.Type.(*ast.FuncType)
						if !isMethod {
							continue
						}
						for _, name := range m.Names {
							if name.Name == "Next" && returnsTupleBoolError(ft) {
								t.Errorf("%s: interface %s declares a per-tuple Next", fset.Position(m.Pos()), ts.Name.Name)
							}
							if file.Name.Name == "engine" && ts.Name.Name == "Iterator" {
								iteratorMethods = append(iteratorMethods, name.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(iteratorMethods)
	if got, want := strings.Join(iteratorMethods, " "), "Close NextBatch Open Schema"; got != want {
		t.Errorf("engine.Iterator's methods are {%s}, want exactly {%s}", got, want)
	}
}

// returnsTupleBoolError reports whether ft's results are
// (Tuple | pkg.Tuple, bool, error).
func returnsTupleBoolError(ft *ast.FuncType) bool {
	if ft.Results == nil || len(ft.Results.List) != 3 {
		return false
	}
	name := func(e ast.Expr) string {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name
		case *ast.SelectorExpr:
			return x.Sel.Name
		}
		return ""
	}
	r := ft.Results.List
	return name(r[0].Type) == "Tuple" && name(r[1].Type) == "bool" && name(r[2].Type) == "error"
}
