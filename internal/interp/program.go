package interp

import (
	"encoding/binary"
	"fmt"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/parser"
	"hsmcc/internal/cc/sema"
	"hsmcc/internal/cc/types"
	"hsmcc/internal/sccsim"
)

// Program is a loadable executable image: the checked AST plus the layout
// of its globals and string literals in the private address space. The
// same Program instantiates once per execution context (each SCC process
// gets its own private copy; baseline threads share their parent's copy).
//
// A Program is IMMUTABLE once Load returns: the layout maps, the function
// tables and every compiled closure are built eagerly and only read
// afterwards. That immutability is a load-bearing contract — one compiled
// Program is shared by any number of concurrent Sims (the grid runner and
// the conformance oracle compile once per workload and fan matrix cells
// out across host cores), so nothing reached from a Program may be
// written during execution. TestSharedProgramConcurrentCells
// (internal/bench) pins this under the race detector.
type Program struct {
	File  *ast.File
	Info  *sema.Info
	Funcs map[string]*ast.FuncDecl

	// globalAddrs assigns each file-scope variable symbol its address in
	// the private globals segment.
	globalAddrs map[*ast.Symbol]uint32
	// stringAddrs assigns each string literal an address (NUL-terminated
	// bytes in the globals segment).
	stringAddrs map[*ast.StringLit]uint32
	// ImageEnd is the first free private address after globals+strings;
	// the heap starts here.
	ImageEnd uint32
	// image is what a core's private memory holds before its first
	// context runs, folded once by layout: one run per initialised
	// global and one for the string literals. Everything else in the
	// globals segment is zero and is never touched, so instantiating
	// costs the initialised bytes, not the segment.
	image []imageRun

	// funcList gives every defined function a small integer so function
	// values (e.g. pthread_create's third argument) fit in a Value; index
	// i is encoded as i+1 so that 0 stays a null function pointer.
	funcList []*ast.FuncDecl

	// compiled caches the lowered form of every function (compile.go),
	// built once at Load time; compiledList parallels funcList so
	// function values decode to their compiled form without a map lookup.
	compiled     map[*ast.FuncDecl]*compiledFunc
	compiledList []*compiledFunc
	// walker runs the contexts of a Program built by LoadWalked, where
	// nothing is lowered; nil for a Program Load built.
	walker Walker
}

// imageRun is one initialised stretch of the program image.
type imageRun struct {
	addr uint32
	data []byte
}

// FullyCompiled reports whether every defined function lowered to the
// compiled form. Load returns no other kind of Program; only a Program
// LoadWalked built (the reference of package interpref) reports false.
func (pr *Program) FullyCompiled() bool { return pr.walker == nil }

// FuncValue returns the value encoding of a defined function.
func (pr *Program) FuncValue(fn *ast.FuncDecl) Value {
	for i, f := range pr.funcList {
		if f == fn {
			return Value{T: types.PointerTo(types.VoidType), I: int64(i + 1)}
		}
	}
	return Value{T: types.PointerTo(types.VoidType)}
}

// FuncByValue decodes a function value back to its declaration.
func (pr *Program) FuncByValue(v Value) *ast.FuncDecl {
	i := int(v.Int()) - 1
	if i < 0 || i >= len(pr.funcList) {
		return nil
	}
	return pr.funcList[i]
}

// compiledByValue decodes a function value to its compiled form.
func (pr *Program) compiledByValue(v Value) *compiledFunc {
	i := int(v.Int()) - 1
	if i < 0 || i >= len(pr.compiledList) {
		return nil
	}
	return pr.compiledList[i]
}

// GlobalsBase is where the globals segment starts in private memory.
const GlobalsBase = sccsim.PrivateBase

// Load lays out a checked file into a Program and lowers every function
// to its compiled form. A function the compiler cannot lower (a tree
// sema would have rejected) is an error naming the function.
func Load(file *ast.File, info *sema.Info) (*Program, error) {
	pr, err := layout(file, info)
	if err != nil {
		return nil, err
	}
	if err := compileProgram(pr); err != nil {
		return nil, err
	}
	return pr, nil
}

// LoadWalked lays out a checked file into a Program that lowers
// nothing: w runs its contexts instead. It is the seam the tree-walk
// reference of package interpref plugs into.
func LoadWalked(file *ast.File, info *sema.Info, w Walker) (*Program, error) {
	pr, err := layout(file, info)
	if err != nil {
		return nil, err
	}
	pr.walker = w
	return pr, nil
}

// layout assigns the globals and string literals of a checked file their
// private addresses.
func layout(file *ast.File, info *sema.Info) (*Program, error) {
	pr := &Program{
		File:        file,
		Info:        info,
		Funcs:       make(map[string]*ast.FuncDecl),
		globalAddrs: make(map[*ast.Symbol]uint32),
		stringAddrs: make(map[*ast.StringLit]uint32),
	}
	for _, fn := range file.Funcs() {
		pr.Funcs[fn.Name] = fn
		pr.funcList = append(pr.funcList, fn)
	}
	cursor := GlobalsBase
	align := func(n uint32, a int) uint32 {
		if a <= 1 {
			return n
		}
		ua := uint32(a)
		return (n + ua - 1) / ua * ua
	}
	for _, d := range file.Globals() {
		if d.Sym == nil {
			return nil, fmt.Errorf("interp: global %s has no symbol (sema not run?)", d.Name)
		}
		size := d.Type.Size()
		if size <= 0 {
			size = 4
		}
		cursor = align(cursor, d.Type.Align())
		pr.globalAddrs[d.Sym] = cursor
		if err := pr.foldGlobal(d, cursor); err != nil {
			return nil, err
		}
		cursor += uint32(size)
	}
	// String literals live after the globals, NUL-terminated.
	strs := imageRun{addr: cursor}
	ast.Inspect(file, func(n ast.Node) bool {
		if s, ok := n.(*ast.StringLit); ok {
			if _, seen := pr.stringAddrs[s]; !seen {
				pr.stringAddrs[s] = cursor
				strs.data = append(append(strs.data, s.Value...), 0)
				cursor += uint32(len(s.Value)) + 1
			}
		}
		return true
	})
	if len(strs.data) > 0 {
		pr.image = append(pr.image, strs)
	}
	pr.ImageEnd = align(cursor, 8)
	return pr, nil
}

// foldGlobal folds d's initialisers into one run of the image at addr.
func (pr *Program) foldGlobal(d *ast.VarDecl, addr uint32) error {
	run := imageRun{addr: addr}
	put := func(e ast.Expr, t *types.Type, what string) error {
		v, err := constValue(e, t)
		if err != nil {
			return fmt.Errorf("interp: global %s%s: %w", d.Name, what, err)
		}
		k, ok := wordOf(t)
		if !ok {
			return fmt.Errorf("interp: cannot store value of type %s", t)
		}
		// The low bytes of the word, as a store writes them.
		run.data = binary.LittleEndian.AppendUint64(run.data, k.unbox(v))[:len(run.data)+k.size]
		return nil
	}
	if d.Init != nil {
		if err := put(d.Init, d.Type, ""); err != nil {
			return err
		}
	}
	for i, e := range d.InitLst {
		if d.Type.Elem == nil {
			return fmt.Errorf("interp: aggregate initialiser on scalar %s", d.Name)
		}
		if err := put(e, d.Type.Elem, fmt.Sprintf("[%d]", i)); err != nil {
			return err
		}
	}
	if len(run.data) > 0 {
		pr.image = append(pr.image, run)
	}
	return nil
}

// Compile parses, checks and loads C source in one step.
func Compile(name, src string) (*Program, error) {
	file, err := parser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Analyze(file)
	if err != nil {
		return nil, err
	}
	return Load(file, info)
}

// GlobalAddr returns the private address of a global symbol.
func (pr *Program) GlobalAddr(sym *ast.Symbol) (uint32, bool) {
	a, ok := pr.globalAddrs[sym]
	return a, ok
}

// StringAddr returns the private address of a string literal's bytes.
func (pr *Program) StringAddr(lit *ast.StringLit) (uint32, bool) {
	a, ok := pr.stringAddrs[lit]
	return a, ok
}

// instantiate writes the image into core's private memory on machine m.
func (pr *Program) instantiate(m *sccsim.Machine, core int) {
	for _, r := range pr.image {
		m.WriteBytes(core, r.addr, r.data)
	}
}

// constValue folds the constant expressions allowed in global
// initialisers (literals, negation, simple arithmetic).
func constValue(e ast.Expr, want *types.Type) (Value, error) {
	switch n := ast.Unparen(e).(type) {
	case *ast.IntLit:
		return IntValue(types.IntType, n.Value), nil
	case *ast.FloatLit:
		return FloatValue(types.DoubleType, n.Value), nil
	case *ast.CharLit:
		return IntValue(types.CharType, int64(n.Value)), nil
	case *ast.UnaryExpr:
		v, err := constValue(n.X, want)
		if err != nil {
			return Value{}, err
		}
		switch n.Op.String() {
		case "-":
			if v.IsFloat() {
				return FloatValue(v.T, -v.F), nil
			}
			return IntValue(v.T, -v.I), nil
		case "+":
			return v, nil
		}
		return Value{}, fmt.Errorf("non-constant unary initialiser")
	case *ast.BinaryExpr:
		x, err := constValue(n.X, want)
		if err != nil {
			return Value{}, err
		}
		y, err := constValue(n.Y, want)
		if err != nil {
			return Value{}, err
		}
		return foldBinary(n.Op, x, y)
	case *ast.CastExpr:
		v, err := constValue(n.X, n.To)
		if err != nil {
			return Value{}, err
		}
		return Convert(v, n.To), nil
	default:
		return Value{}, fmt.Errorf("non-constant initialiser %T", e)
	}
}
