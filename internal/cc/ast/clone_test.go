package ast_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/parser"
	"hsmcc/internal/cc/sema"
	"hsmcc/internal/cc/types"
)

// TestCloneSharesNothingMutable clones every checked-in C program and
// requires the copy to be structurally equal to the original while
// sharing no node and no slice with it — only the immutable types and
// the sema symbols may be common. That is what lets one analysed tree
// be translated by concurrent workers, each on its own copy.
func TestCloneSharesNothingMutable(t *testing.T) {
	files, err := filepath.Glob("../../../testdata/*.c")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs (%v)", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := parser.Parse(path, string(src))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sema.Analyze(orig); err != nil {
			t.Fatal(err)
		}
		cp := ast.Clone(orig)
		if !ast.Equal(orig, cp) {
			t.Fatalf("%s: clone is not structurally equal to the original", path)
		}
		checkDisjoint(t, path, reflect.ValueOf(orig), reflect.ValueOf(cp))
	}
}

var (
	typePtr = reflect.TypeOf((*types.Type)(nil))
	symPtr  = reflect.TypeOf((*ast.Symbol)(nil))
)

// checkDisjoint walks a and b in step and fails on any pointer or slice
// backing array the two share, other than types and symbols.
func checkDisjoint(t *testing.T, where string, a, b reflect.Value) {
	t.Helper()
	for a.Kind() == reflect.Interface {
		if a.IsNil() || b.IsNil() {
			return
		}
		a, b = a.Elem(), b.Elem()
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || a.Type() == typePtr || a.Type() == symPtr {
			return
		}
		if a.Pointer() == b.Pointer() {
			t.Fatalf("%s: clone shares a %s with the original", where, a.Type())
		}
		checkDisjoint(t, where, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			checkDisjoint(t, where, a.Field(i), b.Field(i))
		}
	case reflect.Slice:
		if a.Len() > 0 && a.Pointer() == b.Pointer() && a.Type().Elem() != typePtr {
			t.Fatalf("%s: clone shares a %s backing array with the original", where, a.Type())
		}
		for i := 0; i < a.Len(); i++ {
			checkDisjoint(t, where, a.Index(i), b.Index(i))
		}
	}
}
