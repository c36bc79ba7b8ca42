package synth

import (
	"fmt"
	"strings"

	"hsmcc/internal/cc/ast"
)

// Mix is the instruction-mix accounting of an emitted kernel: operation
// counts per bucket over the compute-round loop bodies (the part of the
// program the parameter vector's fractions govern).
type Mix struct {
	NonMem       int `json:"non_mem"`
	PrivLoads    int `json:"priv_loads"`
	PrivStores   int `json:"priv_stores"`
	SharedLoads  int `json:"shared_loads"`
	SharedStores int `json:"shared_stores"`
}

func (m Mix) Loads() int  { return m.PrivLoads + m.SharedLoads }
func (m Mix) Stores() int { return m.PrivStores + m.SharedStores }
func (m Mix) Mem() int    { return m.Loads() + m.Stores() }
func (m Mix) Total() int  { return m.Mem() + m.NonMem }

func isSharedArray(name string) bool {
	return name == tableName || name == swapAName || name == swapBName
}

func isDataArray(name string) bool {
	return isSharedArray(name) || name == privName
}

// CountMix statically accounts the instruction mix of an emitted kernel
// by walking the compute rounds' loop bodies: each statement is one
// operation, classified as a store when its assignment target indexes a
// data array, a load when its right-hand side reads one, and non-memory
// otherwise. This is the accounting the mix property test checks the
// realised fractions against.
func CountMix(f *ast.File) (Mix, error) {
	var m Mix
	rounds := 0
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || !strings.HasPrefix(fn.Name, "mix") || fn.Body == nil {
			continue
		}
		rounds++
		loop := findLoop(fn.Body)
		if loop == nil {
			continue // a round whose budget emitted no body
		}
		for _, st := range loopBody(loop) {
			kind, name, err := classify(st)
			if err != nil {
				return m, fmt.Errorf("synth: %s: %w", fn.Name, err)
			}
			switch kind {
			case opNonMem:
				m.NonMem++
			case opPrivLoad, opSharedLoad:
				if name == privName {
					m.PrivLoads++
				} else {
					m.SharedLoads++
				}
			case opPrivStore, opSharedStore:
				if name == privName {
					m.PrivStores++
				} else {
					m.SharedStores++
				}
			}
		}
	}
	if rounds == 0 {
		return m, fmt.Errorf("synth: no mix round found in %s", f.Name)
	}
	return m, nil
}

func findLoop(b *ast.BlockStmt) *ast.ForStmt {
	for _, st := range b.List {
		if f, ok := st.(*ast.ForStmt); ok {
			return f
		}
	}
	return nil
}

func loopBody(f *ast.ForStmt) []ast.Stmt {
	if blk, ok := f.Body.(*ast.BlockStmt); ok {
		return blk.List
	}
	return []ast.Stmt{f.Body}
}

// classify maps one loop-body statement to its operation bucket and the
// data array involved. A statement that both stores to and loads from
// data arrays would be ambiguous — the emitter never produces one (store
// right-hand sides are array-free by construction) and classify rejects
// it so the accounting can't silently miscount.
func classify(st ast.Stmt) (opKind, string, error) {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return opNonMem, "", fmt.Errorf("unexpected statement form %T in mix loop", st)
	}
	as, ok := es.X.(*ast.AssignExpr)
	if !ok {
		return opNonMem, "", fmt.Errorf("unexpected expression form %T in mix loop", es.X)
	}
	storeName := ""
	if ix, ok := as.LHS.(*ast.IndexExpr); ok {
		if id, ok := ix.X.(*ast.Ident); ok && isDataArray(id.Name) {
			storeName = id.Name
		}
	}
	loadName := ""
	loads := 0
	ast.Inspect(as.RHS, func(n ast.Node) bool {
		if ix, ok := n.(*ast.IndexExpr); ok {
			if id, ok := ix.X.(*ast.Ident); ok && isDataArray(id.Name) {
				loadName = id.Name
				loads++
			}
		}
		return true
	})
	switch {
	case storeName != "" && loads > 0:
		return opNonMem, "", fmt.Errorf("statement both stores to %s and loads from %s", storeName, loadName)
	case loads > 1:
		return opNonMem, "", fmt.Errorf("statement performs %d loads, want at most 1", loads)
	case storeName == privName:
		return opPrivStore, storeName, nil
	case storeName != "":
		return opSharedStore, storeName, nil
	case loadName == privName:
		return opPrivLoad, loadName, nil
	case loadName != "":
		return opSharedLoad, loadName, nil
	}
	return opNonMem, "", nil
}

// RequestedCounts exposes the integer mix the schedule realises for a
// vector (per loop body, before iteration), so tests can compare the
// AST accounting against the request with exact rounding semantics.
func (p Params) RequestedCounts() (body, nonMem, privLoad, privStore, sharedLoad, sharedStore int) {
	s := p.plan()
	c := s.counts
	return c.body, c.nonMem, c.privLoad, c.privStore, c.sharedLoad, c.sharedStore
}
