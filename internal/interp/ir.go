package interp

import (
	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/types"
)

// This file defines the compiled (lowered) form of a program: the result
// of the one-time compile pass in compile.go. The tree-walking evaluator
// lives on as the reference a test builds with interpref.Compile; the
// golden equivalence tests pin the compiled form to byte-identical
// output and identical cycle statistics against it.

// evalFn is a lowered expression: evaluate to an rvalue.
type evalFn func(p *Proc) (Value, error)

// lvalFn is a lowered lvalue: resolve to (address, stored type).
type lvalFn func(p *Proc) (uint32, *types.Type, error)

// ctrl is statement-level control flow.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// execFn is a lowered statement.
type execFn func(p *Proc, ret *Value) (ctrl, error)

// slotDef is one frame slot of a function's layout, in allocation order
// (parameters first, then every local declaration in source order —
// exactly the order the reference's pushFrame walks).
type slotDef struct {
	sym   *ast.Symbol
	size  uint32
	amask uint32 // alignment - 1
}

// compiledFunc is the resolved form of one *ast.FuncDecl, cached on the
// Program at load time.
type compiledFunc struct {
	decl *ast.FuncDecl
	name string

	// slots is the frame layout; slot i's address is computed at frame
	// push (a subtract and mask per slot) into the Proc's slot arena.
	slots []slotDef
	// paramSlot maps parameter index -> slot index (-1: unnamed param).
	paramSlot []int
	paramType []*types.Type

	body execFn
}

// cframe is one compiled-engine activation record. Slot addresses live in
// the Proc's slotMem arena at [base, base+n); saved restores the stack
// pointer on pop.
type cframe struct {
	base  int
	saved uint32
}
