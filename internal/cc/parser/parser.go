// Package parser implements a recursive-descent parser for the C subset of
// the hsmcc frontend, producing the ast.File IR that the paper's five-stage
// framework analyses and transforms.
//
// The grammar covers: #include lines; global and local declarations with
// pointer/array derivations and brace initialisers; typedefs (with a
// pre-seeded table of Pthread and RCCE handle types, mirroring how the
// paper's CETUS setup knows pthread_t et al.); function definitions and
// prototypes; if/else, for, while, do-while, switch, break, continue,
// return; and the full C expression grammar with correct precedence and
// associativity.
package parser

import (
	"fmt"
	"sync/atomic"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/lexer"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// Error is a parse error with position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// BuiltinTypedefs are handle types known to the frontend without headers;
// they behave as word-sized opaque integers. This mirrors the paper's
// environment, where pthread.h/RCCE.h supply these names.
var BuiltinTypedefs = []string{
	"pthread_t", "pthread_attr_t", "pthread_mutex_t", "pthread_mutexattr_t",
	"pthread_cond_t", "pthread_condattr_t", "size_t", "uint32_t", "int32_t",
	"RCCE_COMM", "RCCE_FLAG", "t_vcharp",
}

type parser struct {
	toks     []token.Token
	pos      int
	typedefs map[string]*types.Type
	structs  map[string]*types.Type

	// pendingFunc holds the FuncDecl produced by parseDeclarator when it
	// encounters a parameter list, so parseDeclOrFunc can attach a body or
	// record a prototype. Only one can be pending at a time.
	pendingFunc *ast.FuncDecl
}

// parses counts Parse calls in this process (Parses).
var parses atomic.Int64

// Parses returns how many times Parse has run in this process. Tests use
// it to pin how often a pipeline parses one source.
func Parses() int64 { return parses.Load() }

// Parse parses src (with name used in diagnostics) into an ast.File.
func Parse(name, src string) (*ast.File, error) {
	parses.Add(1)
	toks, err := lexer.TokenizeWithMacros(src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks:     toks,
		typedefs: make(map[string]*types.Type),
		structs:  make(map[string]*types.Type),
	}
	for _, td := range BuiltinTypedefs {
		p.typedefs[td] = types.OpaqueOf(td)
	}
	file := &ast.File{Name: name}
	for !p.at(token.EOF) {
		d, err := p.parseTopLevel()
		if err != nil {
			return nil, err
		}
		file.Decls = append(file.Decls, d...)
	}
	return file, nil
}

// --- token helpers ---------------------------------------------------------

func (p *parser) cur() token.Token {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	last := token.Pos{}
	if len(p.toks) > 0 {
		last = p.toks[len(p.toks)-1].Pos
	}
	return token.Token{Kind: token.EOF, Pos: last}
}

func (p *parser) peek(n int) token.Token {
	if p.pos+n < len(p.toks) {
		return p.toks[p.pos+n]
	}
	return token.Token{Kind: token.EOF}
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) next() token.Token {
	t := p.cur()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return token.Token{}, p.errorf("expected %s, found %s", k, p.cur())
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

// isTypeStart reports whether the current token can begin a type specifier
// (keyword or typedef name).
func (p *parser) isTypeStart() bool {
	t := p.cur()
	if t.Kind.IsTypeKeyword() || t.Kind == token.KwStatic || t.Kind == token.KwExtern ||
		t.Kind == token.KwRegister || t.Kind == token.KwTypedef {
		return true
	}
	if t.Kind == token.Ident {
		_, ok := p.typedefs[t.Text]
		return ok
	}
	return false
}

// --- top level --------------------------------------------------------------

func (p *parser) parseTopLevel() ([]ast.Node, error) {
	t := p.cur()
	switch {
	case t.Kind == token.Include:
		p.next()
		return []ast.Node{&ast.Include{Text: t.Text, PosInfo: t.Pos}}, nil
	case t.Kind == token.KwTypedef:
		td, err := p.parseTypedef()
		if err != nil {
			return nil, err
		}
		return []ast.Node{td}, nil
	case t.Kind == token.KwStruct && p.peek(1).Kind == token.Ident && p.peek(2).Kind == token.LBrace:
		sd, err := p.parseStructDef()
		if err != nil {
			return nil, err
		}
		return []ast.Node{sd}, nil
	case p.isTypeStart():
		return p.parseDeclOrFunc()
	default:
		return nil, p.errorf("unexpected token %s at top level", t)
	}
}

// parseStructDef parses `struct Name { fields };` registering the type.
func (p *parser) parseStructDef() (ast.Node, error) {
	pos := p.cur().Pos
	p.next() // struct
	nameTok, err := p.expect(token.Ident)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	var fields []types.Field
	for !p.at(token.RBrace) {
		base, err := p.parseTypeSpecifier()
		if err != nil {
			return nil, err
		}
		for {
			ft, fname, _, err := p.parseDeclarator(base)
			if err != nil {
				return nil, err
			}
			fields = append(fields, types.Field{Name: fname, Type: ft})
			if !p.accept(token.Comma) {
				break
			}
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
	}
	p.next() // }
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	st := types.StructOf(nameTok.Text, fields)
	p.structs[nameTok.Text] = st
	return &ast.StructDecl{Type: st, PosInfo: pos}, nil
}

func (p *parser) parseTypedef() (*ast.TypedefDecl, error) {
	pos := p.cur().Pos
	p.next() // typedef
	base, err := p.parseTypeSpecifier()
	if err != nil {
		return nil, err
	}
	ty, name, _, err := p.parseDeclarator(base)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	p.typedefs[name] = ty
	return &ast.TypedefDecl{Name: name, Type: ty, PosInfo: pos}, nil
}

// parseDeclOrFunc parses a global declaration line or function definition.
func (p *parser) parseDeclOrFunc() ([]ast.Node, error) {
	storage := ast.StorageNone
	for {
		switch p.cur().Kind {
		case token.KwStatic:
			storage = ast.StorageStatic
			p.next()
			continue
		case token.KwExtern:
			storage = ast.StorageExtern
			p.next()
			continue
		case token.KwRegister:
			p.next()
			continue
		}
		break
	}
	base, err := p.parseTypeSpecifier()
	if err != nil {
		return nil, err
	}
	// A lone "struct S;" style declaration.
	if p.accept(token.Semi) {
		return nil, nil
	}
	var out []ast.Node
	first := true
	for {
		ty, name, pos, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		if first && ty.Kind == types.Func && p.at(token.LBrace) {
			// Function definition.
			fd := p.pendingFunc
			p.pendingFunc = nil
			if fd == nil {
				return nil, p.errorf("internal: missing pending function for %s", name)
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			fd.Body = body
			fd.PosInfo = pos
			return []ast.Node{fd}, nil
		}
		if ty.Kind == types.Func {
			// Prototype.
			fd := p.pendingFunc
			p.pendingFunc = nil
			if fd != nil {
				fd.PosInfo = pos
				out = append(out, fd)
			}
		} else {
			vd := &ast.VarDecl{Name: name, Type: ty, Storage: storage, PosInfo: pos}
			if p.accept(token.Assign) {
				if err := p.parseInitializer(vd); err != nil {
					return nil, err
				}
			}
			out = append(out, vd)
		}
		first = false
		if p.accept(token.Comma) {
			continue
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// parseInitializer parses "= expr" or "= {list}" contents into vd.
func (p *parser) parseInitializer(vd *ast.VarDecl) error {
	if p.at(token.LBrace) {
		p.next()
		for !p.at(token.RBrace) {
			e, err := p.parseAssignExpr()
			if err != nil {
				return err
			}
			vd.InitLst = append(vd.InitLst, e)
			if !p.accept(token.Comma) {
				break
			}
		}
		_, err := p.expect(token.RBrace)
		return err
	}
	e, err := p.parseAssignExpr()
	if err != nil {
		return err
	}
	vd.Init = e
	return nil
}

// parseTypeSpecifier parses the base type: int, unsigned long, double,
// void, struct S, typedef-name, with const/volatile ignored.
func (p *parser) parseTypeSpecifier() (*types.Type, error) {
	unsigned := false
	var base *types.Type
	for {
		t := p.cur()
		switch t.Kind {
		case token.KwConst, token.KwVolatile, token.KwSigned:
			p.next()
			continue
		case token.KwUnsigned:
			unsigned = true
			p.next()
			continue
		case token.KwVoid:
			p.next()
			base = types.VoidType
		case token.KwChar:
			p.next()
			base = types.CharType
		case token.KwShort:
			p.next()
			base = types.ShortType
			p.accept(token.KwInt)
		case token.KwInt:
			p.next()
			base = types.IntType
		case token.KwLong:
			p.next()
			p.accept(token.KwLong) // "long long" treated as long (ILP32 model)
			p.accept(token.KwInt)
			if p.cur().Kind == token.KwDouble {
				p.next()
				base = types.DoubleType
			} else {
				base = types.LongType
			}
		case token.KwFloat:
			p.next()
			base = types.FloatType
		case token.KwDouble:
			p.next()
			base = types.DoubleType
		case token.KwStruct:
			p.next()
			nameTok, err := p.expect(token.Ident)
			if err != nil {
				return nil, err
			}
			st, ok := p.structs[nameTok.Text]
			if !ok {
				return nil, p.errorf("unknown struct %q", nameTok.Text)
			}
			base = st
		case token.Ident:
			if td, ok := p.typedefs[t.Text]; ok {
				p.next()
				base = td
			}
		}
		break
	}
	if base == nil {
		if unsigned {
			return types.UIntType, nil
		}
		return nil, p.errorf("expected type specifier, found %s", p.cur())
	}
	if unsigned && (base.Kind == types.Int || base.Kind == types.Long ||
		base.Kind == types.Char || base.Kind == types.Short) {
		return types.UIntType, nil
	}
	return base, nil
}

// parseDeclarator parses pointer stars, the name, and array/function
// suffixes, returning the full type and name.
func (p *parser) parseDeclarator(base *types.Type) (*types.Type, string, token.Pos, error) {
	ty := base
	for p.accept(token.Star) {
		ty = types.PointerTo(ty)
		// const after * (e.g. int *const p)
		p.accept(token.KwConst)
	}
	nameTok, err := p.expect(token.Ident)
	if err != nil {
		return nil, "", token.Pos{}, err
	}
	name := nameTok.Text
	pos := nameTok.Pos
	// Array suffixes, innermost-last: a[2][3] is array(2) of array(3).
	var dims []int
	for p.accept(token.LBracket) {
		if p.accept(token.RBracket) {
			dims = append(dims, -1)
			continue
		}
		e, err := p.parseCondExpr()
		if err != nil {
			return nil, "", pos, err
		}
		n, ok := constIntValue(e)
		if !ok {
			return nil, "", pos, p.errorf("array dimension of %q must be an integer constant", name)
		}
		if _, err := p.expect(token.RBracket); err != nil {
			return nil, "", pos, err
		}
		dims = append(dims, int(n))
	}
	for i := len(dims) - 1; i >= 0; i-- {
		ty = types.ArrayOf(ty, dims[i])
	}
	// Function suffix.
	if p.accept(token.LParen) {
		fd := &ast.FuncDecl{Name: name, Result: ty, PosInfo: pos}
		var ptys []*types.Type
		variadic := false
		if !p.at(token.RParen) {
			if p.at(token.KwVoid) && p.peek(1).Kind == token.RParen {
				p.next()
			} else {
				for {
					if p.accept(token.Ellipsis) {
						variadic = true
						break
					}
					pbase, err := p.parseTypeSpecifier()
					if err != nil {
						return nil, "", pos, err
					}
					pty := pbase
					for p.accept(token.Star) {
						pty = types.PointerTo(pty)
					}
					pname := ""
					ppos := p.cur().Pos
					if p.at(token.Ident) {
						pname = p.next().Text
					}
					for p.accept(token.LBracket) {
						// Parameter arrays decay to pointers.
						if !p.accept(token.RBracket) {
							e, err := p.parseCondExpr()
							if err != nil {
								return nil, "", pos, err
							}
							_ = e
							if _, err := p.expect(token.RBracket); err != nil {
								return nil, "", pos, err
							}
						}
						pty = types.PointerTo(pty)
					}
					fd.Params = append(fd.Params, &ast.Param{Name: pname, Type: pty, PosInfo: ppos})
					ptys = append(ptys, pty)
					if !p.accept(token.Comma) {
						break
					}
				}
			}
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, "", pos, err
		}
		p.pendingFunc = fd
		return types.FuncOf(ty, ptys, variadic), name, pos, nil
	}
	return ty, name, pos, nil
}

// constIntValue folds trivially constant expressions used as array bounds:
// integer literals and +-* / of them.
func constIntValue(e ast.Expr) (int64, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.IntLit:
		return x.Value, true
	case *ast.CharLit:
		return int64(x.Value), true
	case *ast.UnaryExpr:
		if v, ok := constIntValue(x.X); ok && x.Op == token.Minus {
			return -v, true
		}
	case *ast.BinaryExpr:
		a, okA := constIntValue(x.X)
		b, okB := constIntValue(x.Y)
		if okA && okB {
			switch x.Op {
			case token.Plus:
				return a + b, true
			case token.Minus:
				return a - b, true
			case token.Star:
				return a * b, true
			case token.Slash:
				if b != 0 {
					return a / b, true
				}
			case token.Shl:
				return a << uint(b), true
			}
		}
	}
	return 0, false
}
