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

// TestOneRowProtocol pins that rows move between operators one way: as
// column batches. It parses every non-test Go file of the module and
// fails if engine.Iterator is anything but {Open, Next, Close, Schema},
// if any type grows a per-tuple `Next() (Tuple, bool, error)`, or if one
// of the adapters that used to translate between protocols is declared
// again — so a second way to pull rows fails tier-1, not review. No
// non-test file of package engine or store declares the row protocol or
// its adapters again: NextBatch, the columnar capability that sat beside
// it (NextColBatch, ColumnarNative, ColBatchIterator, NativeColumnar,
// ColumnarLeaf, ColumnarScan), the row-to-column reader, the per-operator
// materializer, the row output arena or the row window. The hash join
// declares Next, and neither it nor the join table holds a row slice —
// there is no row-keyed table and no row probe. The hash join declares
// no NarrowKeys — a join on another join's probe side (join trees may
// be bushy, TestChainsAreStitched) takes no keys — and the range hint
// that sat beside it (KeyRangeNarrower, NarrowKeyRange) is not declared
// again: keys flow down one interface, KeyNarrower. And
// package engine declares no anti join again (AntiJoin or Anti as a
// function, constant, type or field).
// There is one engine path, too: the parallel operators that lost to
// the serial ones are banned, and an operator runs on its caller's
// goroutine — no non-test file of package engine has a go statement.
// And there is one join operator: no non-test file of package engine or
// store names the index-nested-loop join or the probe-cost model that
// chose it, and the nested-loop join, the row server it made its output
// through (HeldRows) and the choice between it and the hash join
// (joinChoice, chooseJoin) are not declared again. Tuples are made at
// the sink: in package engine only the one drain, DrainLimited, calls
// ColBatch.Materialize.
func TestOneRowProtocol(t *testing.T) {
	banned := map[string]bool{"Batched": true, "Columnar": true, "batchAdapter": true, "rowColAdapter": true,
		"ParallelHashJoinIter": true, "ParallelFilterIter": true, "NewParallelHashJoin": true, "NewParallelFilter": true,
		"parallelWorthwhile": true, "KeyRangeNarrower": true, "NarrowKeyRange": true,
		"NestedLoopJoinIter": true, "NewNestedLoopJoin": true, "HeldRows": true, "joinChoice": true, "chooseJoin": true}
	indexJoin := map[string]bool{"IndexJoinIter": true, "NewIndexJoin": true, "JoinIndex": true, "ProbeCost": true,
		"cachedProbeRows": true, "uncachedDecodeShare": true}
	rowProtocol := map[string]bool{"NextBatch": true, "NextColBatch": true, "ColumnarNative": true, "ColBatchIterator": true,
		"NativeColumnar": true, "ColumnarLeaf": true, "ColumnarScan": true, "colReader": true, "materializer": true,
		"outArena": true, "Window": true}
	antiJoin := map[string]bool{"AntiJoin": true, "Anti": true}
	var iteratorMethods []string
	joins := map[string]map[string]bool{"HashJoinIter": {}}
	fset, files := moduleSources(t)
	for _, file := range files {
		if file.Name.Name == "engine" || file.Name.Name == "store" {
			ast.Inspect(file, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.GoStmt:
					if file.Name.Name == "engine" {
						t.Errorf("%s: go statement in package engine: an operator runs on its caller's goroutine", fset.Position(x.Pos()))
					}
				case *ast.Ident:
					if indexJoin[x.Name] {
						t.Errorf("%s: %s names the deleted index-nested-loop join", fset.Position(x.Pos()), x.Name)
					}
				}
				return true
			})
		}
		engineOrStore := file.Name.Name == "engine" || file.Name.Name == "store"
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if file.Name.Name == "engine" && d.Name.Name != "DrainLimited" {
					ast.Inspect(d, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok {
							if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Materialize" {
								t.Errorf("%s: %s calls Materialize: tuples are made at the sink (DrainLimited)", fset.Position(call.Pos()), d.Name.Name)
							}
						}
						return true
					})
				}
				if banned[d.Name.Name] {
					t.Errorf("%s: %s is declared again", fset.Position(d.Pos()), d.Name.Name)
				}
				if engineOrStore && rowProtocol[d.Name.Name] {
					t.Errorf("%s: %s of the row protocol is declared again", fset.Position(d.Pos()), d.Name.Name)
				}
				if file.Name.Name == "engine" && antiJoin[d.Name.Name] {
					t.Errorf("%s: the anti join's %s is declared again", fset.Position(d.Pos()), d.Name.Name)
				}
				if d.Recv != nil && file.Name.Name == "engine" {
					if star, ok := d.Recv.List[0].Type.(*ast.StarExpr); ok {
						if id, ok := star.X.(*ast.Ident); ok && joins[id.Name] != nil {
							joins[id.Name][d.Name.Name] = true
						}
					}
				}
				if d.Recv != nil && d.Name.Name == "Next" && returnsTupleBoolError(d.Type) {
					t.Errorf("%s: per-tuple Next() (Tuple, bool, error) declared", fset.Position(d.Pos()))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && file.Name.Name == "engine" {
						for _, name := range vs.Names {
							if antiJoin[name.Name] {
								t.Errorf("%s: the anti join's %s is declared again", fset.Position(name.Pos()), name.Name)
							}
						}
					}
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if file.Name.Name == "engine" {
						names := []*ast.Ident{ts.Name}
						if st, ok := ts.Type.(*ast.StructType); ok {
							for _, f := range st.Fields.List {
								names = append(names, f.Names...)
							}
						}
						for _, name := range names {
							if antiJoin[name.Name] {
								t.Errorf("%s: the anti join's %s is declared again", fset.Position(name.Pos()), name.Name)
							}
						}
					}
					if banned[ts.Name.Name] {
						t.Errorf("%s: %s is declared again", fset.Position(ts.Pos()), ts.Name.Name)
					}
					if engineOrStore && rowProtocol[ts.Name.Name] {
						t.Errorf("%s: %s of the row protocol is declared again", fset.Position(ts.Pos()), ts.Name.Name)
					}
					if st, ok := ts.Type.(*ast.StructType); ok && file.Name.Name == "engine" &&
						(joins[ts.Name.Name] != nil || ts.Name.Name == "joinTable") {
						for _, f := range st.Fields.List {
							if arr, ok := f.Type.(*ast.ArrayType); ok && arr.Len == nil {
								if id, ok := arr.Elt.(*ast.Ident); ok && id.Name == "Tuple" {
									t.Errorf("%s: %s holds rows ([]Tuple)", fset.Position(f.Pos()), ts.Name.Name)
								}
							}
						}
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
							if engineOrStore && rowProtocol[name.Name] {
								t.Errorf("%s: interface %s declares %s of the row protocol", fset.Position(m.Pos()), ts.Name.Name, name.Name)
							}
							if file.Name.Name == "engine" && ts.Name.Name == "Iterator" {
								iteratorMethods = append(iteratorMethods, name.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(iteratorMethods)
	if got, want := strings.Join(iteratorMethods, " "), "Close Next Open Schema"; got != want {
		t.Errorf("engine.Iterator's methods are {%s}, want exactly {%s}", got, want)
	}
	for join, methods := range joins {
		if !methods["Next"] {
			t.Errorf("engine.%s does not declare Next", join)
		}
	}
	if joins["HashJoinIter"]["NarrowKeys"] {
		t.Error("engine.HashJoinIter declares NarrowKeys: no join hands it keys")
	}
}

// TestEveryOperatorHasACaller pins that the engine carries only the
// algebra some program path builds. Every exported function of package
// engine whose one result is a plan node or an expression (Plan, *…Plan,
// Expr, *…Expr) must be called from a non-test file of the module other
// than its own declaration. An operator or expression only tests build
// is dead code: delete it.
func TestEveryOperatorHasACaller(t *testing.T) {
	_, files := moduleSources(t)
	builders := map[string]bool{} // name → called
	for _, file := range files {
		if file.Name.Name != "engine" {
			continue
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() && buildsNode(fn.Type) {
				builders[fn.Name.Name] = false
			}
		}
	}
	if len(builders) == 0 {
		t.Fatal("found no plan or expression constructor in package engine")
	}
	for _, file := range files {
		pkg := engineName(file)
		if pkg == "-" {
			continue
		}
		for _, decl := range file.Decls {
			var self string
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				self = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var name string
				switch f := call.Fun.(type) {
				case *ast.Ident:
					if pkg == "" {
						name = f.Name
					}
				case *ast.SelectorExpr:
					if x, ok := f.X.(*ast.Ident); ok && pkg != "" && x.Name == pkg {
						name = f.Sel.Name
					}
				}
				if _, ok := builders[name]; ok && !(pkg == "" && name == self) {
					builders[name] = true
				}
				return true
			})
		}
	}
	var dead []string
	for name, called := range builders {
		if !called {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("engine builds nodes no program path calls: %s", strings.Join(dead, ", "))
	}
}

// TestStoreMakesNoRows pins that the store's read path makes no rows:
// a stored row reaches its consumer as a cell of a column batch the
// store scan serves, never as an engine.Tuple. No non-test file of
// package store names engine.Tuple.
func TestStoreMakesNoRows(t *testing.T) {
	fset, files := moduleSources(t)
	for _, file := range files {
		if file.Name.Name != "store" {
			continue
		}
		pkg := engineName(file)
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg && sel.Sel.Name == "Tuple" {
				t.Errorf("%s: package store names engine.Tuple: its read path makes rows", fset.Position(sel.Pos()))
			}
			return true
		})
	}
}

// engineName is the name package engine goes by in file: "" inside it,
// "-" where it is not imported.
func engineName(file *ast.File) string {
	if file.Name.Name == "engine" {
		return ""
	}
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) == "urel/internal/engine" {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return "engine"
		}
	}
	return "-"
}

// buildsNode reports whether ft has one result, a plan node or an
// expression: Plan, *…Plan, Expr or *…Expr.
func buildsNode(ft *ast.FuncType) bool {
	if ft.Results == nil || len(ft.Results.List) != 1 || len(ft.Results.List[0].Names) > 1 {
		return false
	}
	typ := ft.Results.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && (strings.HasSuffix(id.Name, "Plan") || strings.HasSuffix(id.Name, "Expr"))
}

// moduleSources parses every non-test Go file of the module. benchmark/
// is a module of its own; dot-directories hold no source.
func moduleSources(t *testing.T) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err == nil {
			files = append(files, file)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
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
