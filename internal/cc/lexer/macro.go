package lexer

import (
	"fmt"
	"strings"

	"hsmcc/internal/cc/token"
)

// Object-like macro support (#define NAME replacement...), the expansion
// of thesis §7.1 ("Pthread code wrapped within macros is inaccessible to
// the parser"). Function-like macros remain out of scope — the thesis
// leaves them to future work for good reason: mapping macro abstractions
// like CreateThread onto the pass pipeline would specialise the parser
// beyond the Pthread specification.
//
// Expansion happens during Tokenize: a #define records its replacement
// token list; subsequent identifier tokens matching a macro name are
// spliced with the replacement, recursively, with self-reference guarded
// the way C preprocessors do (an expanding macro's own name is not
// re-expanded).

// macroTable maps a macro name to its replacement tokens.
type macroTable map[string][]token.Token

// TokenizeWithMacros scans src handling #define directives and expanding
// object-like macros, into a slice the caller owns. The parser lexes
// through AppendTokens into a buffer it reuses.
func TokenizeWithMacros(src string) ([]token.Token, error) {
	return AppendTokens(nil, src)
}

// AppendTokens is TokenizeWithMacros appending to out. C source spends
// two to four bytes per token (the corpus, the synthetic and the grammar
// kernels all do), so unless out has room for half of src's length in
// tokens it first moves to a slice that has, which is room enough
// without regrowth for nearly every input. On an error it returns a nil
// slice.
func AppendTokens(out []token.Token, src string) ([]token.Token, error) {
	if need := len(out) + len(src)/2; cap(out) < need {
		out = append(make([]token.Token, 0, need), out...)
	}
	lx := New(src)
	macros := make(macroTable)
	for {
		t, err := lx.nextAllowDefine()
		if err != nil {
			return nil, err
		}
		if t.Kind == token.EOF {
			return out, nil
		}
		if t.Kind == kindDefine {
			name, repl, err := parseDefine(t)
			if err != nil {
				return nil, err
			}
			macros[name] = repl
			continue
		}
		if out, err = expand(out, t, macros, nil); err != nil {
			return nil, err
		}
	}
}

// kindDefine is an internal pseudo-kind for a captured "#define ..." line;
// it never escapes the lexer package.
const kindDefine token.Kind = -1

// nextAllowDefine is Next, but captures #define lines instead of
// rejecting them.
func (lx *Lexer) nextAllowDefine() (token.Token, error) {
	if err := lx.skipSpace(); err != nil {
		return token.Token{}, err
	}
	pos := lx.pos()
	if lx.off < len(lx.src) && lx.peek() == '#' {
		start := lx.off
		for lx.off < len(lx.src) && lx.peek() != '\n' {
			lx.advance()
		}
		line := strings.TrimSpace(lx.src[start:lx.off])
		rest := strings.TrimSpace(strings.TrimPrefix(line, "#"))
		switch {
		case strings.HasPrefix(rest, "include"):
			return token.Token{Kind: token.Include, Text: line, Pos: pos}, nil
		case strings.HasPrefix(rest, "define"):
			return token.Token{Kind: kindDefine, Text: line, Pos: pos}, nil
		default:
			return token.Token{}, lx.errorf(pos,
				"unsupported preprocessor directive %q (only #include and #define are accepted)", line)
		}
	}
	return lx.Next()
}

// parseDefine splits "#define NAME replacement" and lexes the replacement.
func parseDefine(t token.Token) (string, []token.Token, error) {
	body := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(t.Text, "#")), "define"))
	if body == "" {
		return "", nil, &Error{Pos: t.Pos, Msg: "empty #define"}
	}
	fields := strings.SplitN(body, " ", 2)
	name := strings.TrimSpace(fields[0])
	if name == "" || !isAlpha(name[0]) {
		return "", nil, &Error{Pos: t.Pos, Msg: fmt.Sprintf("bad macro name %q", name)}
	}
	if strings.Contains(name, "(") {
		return "", nil, &Error{Pos: t.Pos,
			Msg: fmt.Sprintf("function-like macro %q not supported (thesis §7.1 scope)", name)}
	}
	var repl []token.Token
	if len(fields) == 2 {
		toks, err := Tokenize(fields[1])
		if err != nil {
			return "", nil, fmt.Errorf("in #define %s: %w", name, err)
		}
		repl = toks
	}
	return name, repl, nil
}

// expand appends t to out, spliced if it names a macro, recursively;
// expanding is the set of names already being expanded (self-reference
// guard).
func expand(out []token.Token, t token.Token, macros macroTable, expanding map[string]bool) ([]token.Token, error) {
	if t.Kind != token.Ident {
		return append(out, t), nil
	}
	repl, ok := macros[t.Text]
	if !ok || expanding[t.Text] {
		return append(out, t), nil
	}
	if len(expanding) > 64 {
		return nil, fmt.Errorf("%s: macro expansion too deep at %q", t.Pos, t.Text)
	}
	inner := make(map[string]bool, len(expanding)+1)
	for k := range expanding {
		inner[k] = true
	}
	inner[t.Text] = true
	for _, rt := range repl {
		rt.Pos = t.Pos // expansions report the use site
		var err error
		if out, err = expand(out, rt, macros, inner); err != nil {
			return nil, err
		}
	}
	return out, nil
}
