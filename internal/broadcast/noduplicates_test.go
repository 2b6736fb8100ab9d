package broadcast

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoDuplicatesEmbeddersInheritOnDuplicate guards the rule the
// ideal-radio and slotted-MAC engines rely on when they skip OnDuplicate
// for protocols that embed NoDuplicates: no such type may declare its own
// OnDuplicate. It parses every non-test Go file of the module and follows embedding
// chains across its packages, so a type that embeds NoDuplicates through
// another type (say, Flooding) is held to the rule as well, and so is
// every type on the chain between it and NoDuplicates.
func TestNoDuplicatesEmbeddersInheritOnDuplicate(t *testing.T) {
	const module = "clustercast"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(filepath.Join(root, "go.mod")); err != nil || !strings.HasPrefix(string(b), "module "+module+"\n") {
		t.Fatalf("%s is not the %s module root (%v)", root, module, err)
	}

	// A type is named by its package directory and its name.
	type typeKey struct{ dir, name string }
	embeds := map[typeKey][]typeKey{} // struct type -> its embedded named types
	declares := map[typeKey]string{}  // type -> position of its OnDuplicate method
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
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
		imports := map[string]string{} // local package name -> directory
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(p, module+"/")
			if !ok {
				continue
			}
			name := filepath.Base(rel)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = filepath.Join(root, filepath.FromSlash(rel))
		}
		// named resolves an embedded field's type to a module type.
		named := func(e ast.Expr) (typeKey, bool) {
			if star, ok := e.(*ast.StarExpr); ok {
				e = star.X
			}
			switch e := e.(type) {
			case *ast.Ident:
				return typeKey{dir, e.Name}, true
			case *ast.SelectorExpr:
				if pkg, ok := e.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
					return typeKey{imports[pkg.Name], e.Sel.Name}, true
				}
			}
			return typeKey{}, false
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					k := typeKey{dir, ts.Name.Name}
					for _, field := range st.Fields.List {
						if len(field.Names) == 0 {
							if e, ok := named(field.Type); ok {
								embeds[k] = append(embeds[k], e)
							}
						}
					}
				}
			case *ast.FuncDecl:
				if decl.Recv == nil || decl.Name.Name != "OnDuplicate" {
					continue
				}
				if k, ok := named(decl.Recv.List[0].Type); ok {
					declares[k] = fset.Position(decl.Pos()).String()
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	mixin := typeKey{filepath.Join(root, "internal", "broadcast"), "NoDuplicates"}
	if declares[mixin] == "" {
		t.Fatal("the scan did not find NoDuplicates.OnDuplicate")
	}
	// chain returns the embedding path from k down to NoDuplicates (nil
	// when k does not embed it).
	var chain func(k typeKey, depth int) []typeKey
	chain = func(k typeKey, depth int) []typeKey {
		if k == mixin {
			return []typeKey{k}
		}
		if depth > 16 {
			return nil
		}
		for _, e := range embeds[k] {
			if c := chain(e, depth+1); c != nil {
				return append([]typeKey{k}, c...)
			}
		}
		return nil
	}
	embedders := 0
	for k := range embeds {
		c := chain(k, 0)
		if c == nil {
			continue
		}
		embedders++
		for _, on := range c[:len(c)-1] {
			if pos, ok := declares[on]; ok {
				t.Errorf("%s.%s embeds NoDuplicates, but %s.%s on its embedding chain declares OnDuplicate "+
					"at %s, which the engines never call", filepath.Base(k.dir), k.name,
					filepath.Base(on.dir), on.name, pos)
			}
		}
	}
	// Flooding, Gossip and StaticCDS embed the mixin; DP, PDP and MPR
	// declare their own OnDuplicate.
	if embedders < 3 || len(declares) < 4 {
		t.Fatalf("the scan found %d NoDuplicates embedders and %d OnDuplicate methods; it missed the protocols",
			embedders, len(declares))
	}
}
