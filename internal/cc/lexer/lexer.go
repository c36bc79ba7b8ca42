// Package lexer turns C source text into a token stream for the hsmcc
// parser. It handles //- and /* */-comments, #include lines (captured as
// single tokens so the printer can re-emit them), and all literal forms the
// benchmark programs use. Object-like #define macros are expanded by
// TokenizeWithMacros (implementing the thesis's §7.1 future-work item);
// function-like macros and conditional compilation remain out of scope.
package lexer

import (
	"fmt"
	"strings"

	"hsmcc/internal/cc/token"
)

// Error is a lexical error carrying a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans a source buffer. Create one with New and call Next until EOF.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
	err  *Error
}

// New returns a lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize scans all of src and returns the tokens (excluding EOF).
func Tokenize(src string) ([]token.Token, error) {
	lx := New(src)
	var toks []token.Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == token.EOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

func (lx *Lexer) pos() token.Pos { return token.Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekAt(n int) byte {
	if lx.off+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+n]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) errorf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isAlnum(c byte) bool { return isAlpha(c) || isDigit(c) }
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// skipSpace consumes whitespace and comments. It returns an error for an
// unterminated block comment.
func (lx *Lexer) skipSpace() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case isSpace(c):
			lx.advance()
		case c == '/' && lx.peekAt(1) == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return lx.errorf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token, or a token with Kind EOF at end of input.
func (lx *Lexer) Next() (token.Token, error) {
	if err := lx.skipSpace(); err != nil {
		return token.Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return token.Token{Kind: token.EOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case c == '#':
		return lx.scanDirective(pos)
	case isAlpha(c):
		return lx.scanIdent(pos), nil
	case isDigit(c) || (c == '.' && isDigit(lx.peekAt(1))):
		return lx.scanNumber(pos)
	case c == '"':
		return lx.scanString(pos)
	case c == '\'':
		return lx.scanChar(pos)
	default:
		return lx.scanOperator(pos)
	}
}

// scanDirective captures "#include ..." as a single token and rejects any
// other preprocessor directive.
func (lx *Lexer) scanDirective(pos token.Pos) (token.Token, error) {
	start := lx.off
	for lx.off < len(lx.src) && lx.peek() != '\n' {
		lx.advance()
	}
	line := strings.TrimSpace(lx.src[start:lx.off])
	rest := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	if strings.HasPrefix(rest, "include") {
		return token.Token{Kind: token.Include, Text: line, Pos: pos}, nil
	}
	return token.Token{}, lx.errorf(pos, "unsupported preprocessor directive %q (only #include is accepted)", line)
}

func (lx *Lexer) scanIdent(pos token.Pos) token.Token {
	start := lx.off
	for lx.off < len(lx.src) && isAlnum(lx.peek()) {
		lx.advance()
	}
	text := lx.src[start:lx.off]
	if kw, ok := token.Keywords[text]; ok {
		return token.Token{Kind: kw, Text: text, Pos: pos}
	}
	return token.Token{Kind: token.Ident, Text: text, Pos: pos}
}

func (lx *Lexer) scanNumber(pos token.Pos) (token.Token, error) {
	start := lx.off
	isFloat := false
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.advance()
		lx.advance()
		for lx.off < len(lx.src) && isHexDigit(lx.peek()) {
			lx.advance()
		}
	} else {
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		if lx.peek() == '.' {
			isFloat = true
			lx.advance()
			for lx.off < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			next := lx.peekAt(1)
			if isDigit(next) || ((next == '+' || next == '-') && isDigit(lx.peekAt(2))) {
				isFloat = true
				lx.advance()
				if lx.peek() == '+' || lx.peek() == '-' {
					lx.advance()
				}
				for lx.off < len(lx.src) && isDigit(lx.peek()) {
					lx.advance()
				}
			}
		}
	}
	// Integer / float suffixes: L, U, UL, f, F.
	for lx.off < len(lx.src) {
		switch lx.peek() {
		case 'l', 'L', 'u', 'U':
			lx.advance()
			continue
		case 'f', 'F':
			isFloat = true
			lx.advance()
			continue
		}
		break
	}
	text := lx.src[start:lx.off]
	if isAlpha(lx.peek()) {
		return token.Token{}, lx.errorf(pos, "malformed number %q", text+string(lx.peek()))
	}
	kind := token.IntLit
	if isFloat {
		kind = token.FloatLit
	}
	return token.Token{Kind: kind, Text: text, Pos: pos}, nil
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func (lx *Lexer) scanString(pos token.Pos) (token.Token, error) {
	lx.advance() // opening quote
	var sb strings.Builder
	for {
		if lx.off >= len(lx.src) || lx.peek() == '\n' {
			return token.Token{}, lx.errorf(pos, "unterminated string literal")
		}
		c := lx.advance()
		if c == '"' {
			return token.Token{Kind: token.StringLit, Text: sb.String(), Pos: pos}, nil
		}
		if c == '\\' {
			if lx.off >= len(lx.src) {
				return token.Token{}, lx.errorf(pos, "unterminated string literal")
			}
			e, err := lx.escape(pos)
			if err != nil {
				return token.Token{}, err
			}
			sb.WriteByte(e)
			continue
		}
		sb.WriteByte(c)
	}
}

func (lx *Lexer) scanChar(pos token.Pos) (token.Token, error) {
	lx.advance() // opening quote
	if lx.off >= len(lx.src) {
		return token.Token{}, lx.errorf(pos, "unterminated char literal")
	}
	var val byte
	c := lx.advance()
	if c == '\\' {
		e, err := lx.escape(pos)
		if err != nil {
			return token.Token{}, err
		}
		val = e
	} else {
		val = c
	}
	if lx.off >= len(lx.src) || lx.advance() != '\'' {
		return token.Token{}, lx.errorf(pos, "unterminated char literal")
	}
	return token.Token{Kind: token.CharLit, Text: string(val), Pos: pos}, nil
}

func (lx *Lexer) escape(pos token.Pos) (byte, error) {
	if lx.off >= len(lx.src) {
		return 0, lx.errorf(pos, "unterminated escape sequence")
	}
	c := lx.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	default:
		return 0, lx.errorf(pos, "unsupported escape sequence \\%c", c)
	}
}

// twoKinds and oneKinds map two- and one-character punctuation to its
// kind. oneKinds is indexed by the character; the zero Kind (token.EOF)
// marks characters that are not punctuation.
var (
	twoKinds = map[string]token.Kind{
		"->": token.Arrow, "++": token.PlusPlus, "--": token.MinusMinus,
		"+=": token.AddAssign, "-=": token.SubAssign, "*=": token.MulAssign,
		"/=": token.DivAssign, "%=": token.ModAssign, "&=": token.AndAssign,
		"|=": token.OrAssign, "^=": token.XorAssign, "<<": token.Shl,
		">>": token.Shr, "<=": token.Le, ">=": token.Ge, "==": token.EqEq,
		"!=": token.NotEq, "&&": token.AndAnd, "||": token.OrOr,
	}
	oneKinds = [256]token.Kind{
		'(': token.LParen, ')': token.RParen, '{': token.LBrace,
		'}': token.RBrace, '[': token.LBracket, ']': token.RBracket,
		';': token.Semi, ',': token.Comma, '.': token.Dot,
		'=': token.Assign, '+': token.Plus, '-': token.Minus,
		'*': token.Star, '/': token.Slash, '%': token.Percent,
		'&': token.Amp, '|': token.Pipe, '^': token.Caret,
		'~': token.Tilde, '!': token.Bang, '<': token.Lt, '>': token.Gt,
		'?': token.Quest, ':': token.Colon,
	}
)

// scanOperator scans punctuation, longest match first.
func (lx *Lexer) scanOperator(pos token.Pos) (token.Token, error) {
	three := ""
	if lx.off+3 <= len(lx.src) {
		three = lx.src[lx.off : lx.off+3]
	}
	switch three {
	case "...":
		lx.advance()
		lx.advance()
		lx.advance()
		return token.Token{Kind: token.Ellipsis, Text: three, Pos: pos}, nil
	case "<<=":
		lx.advance()
		lx.advance()
		lx.advance()
		return token.Token{Kind: token.ShlAssign, Text: three, Pos: pos}, nil
	case ">>=":
		lx.advance()
		lx.advance()
		lx.advance()
		return token.Token{Kind: token.ShrAssign, Text: three, Pos: pos}, nil
	}
	two := ""
	if lx.off+2 <= len(lx.src) {
		two = lx.src[lx.off : lx.off+2]
	}
	if k, ok := twoKinds[two]; ok {
		lx.advance()
		lx.advance()
		return token.Token{Kind: k, Text: two, Pos: pos}, nil
	}
	c := lx.peek()
	if k := oneKinds[c]; k != token.EOF {
		text := lx.src[lx.off : lx.off+1]
		lx.advance()
		return token.Token{Kind: k, Text: text, Pos: pos}, nil
	}
	return token.Token{}, lx.errorf(pos, "unexpected character %q", string(c))
}
