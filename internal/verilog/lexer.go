package verilog

import "strings"

// Lexer turns Verilog source text into a token stream. Comments (// and
// /* */) and compiler directives (`define lines) are skipped.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the whole input. It returns the tokens (terminated by a
// TokEOF token) and the first lexical error, if any.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	// Sized from the source: the corpus averages 4.3 bytes a token and
	// its densest design 2.5, so the slice grows at most once.
	toks := make([]Token, 0, len(src)/3+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			startLine, startCol := lx.line, lx.col
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return errf(startLine, startCol, "unterminated block comment")
			}
		case c == '`':
			// Compiler directive: skip to end of line.
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isBaseDigit(c byte) bool {
	return isDigit(c) || c == '_' || c == 'x' || c == 'X' || c == 'z' || c == 'Z' ||
		(c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') || c == '?'
}

// multi-character symbols, longest first. The sequence operators |->, |=>,
// ## and -> never occur in design code; they are lexed here so the SVA
// layer (internal/sva) can share this lexer.
var symbols3 = []string{"<<<", ">>>", "===", "!==", "|->", "|=>"}
var symbols2 = []string{
	"&&", "||", "==", "!=", "<=", ">=", "<<", ">>", "**",
	"~&", "~|", "~^", "^~", "+:", "-:", "##", "->", "=>",
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Line: lx.line, Col: lx.col}, nil
	}
	line, col := lx.line, lx.col
	c := lx.peek()

	switch {
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Line: line, Col: col}, nil

	case isDigit(c) || c == '\'':
		return lx.lexNumber(line, col)

	case c == '"':
		lx.advance()
		start := lx.pos
		for lx.pos < len(lx.src) && lx.peek() != '"' {
			if lx.peek() == '\n' {
				return Token{}, errf(line, col, "unterminated string literal")
			}
			lx.advance()
		}
		if lx.pos >= len(lx.src) {
			return Token{}, errf(line, col, "unterminated string literal")
		}
		text := lx.src[start:lx.pos]
		lx.advance() // closing quote
		return Token{Kind: TokString, Text: text, Line: line, Col: col}, nil
	}

	// Symbols.
	rest := lx.src[lx.pos:]
	for _, s := range symbols3 {
		if strings.HasPrefix(rest, s) {
			for range s {
				lx.advance()
			}
			return Token{Kind: TokSymbol, Text: s, Line: line, Col: col}, nil
		}
	}
	for _, s := range symbols2 {
		if strings.HasPrefix(rest, s) {
			for range s {
				lx.advance()
			}
			return Token{Kind: TokSymbol, Text: s, Line: line, Col: col}, nil
		}
	}
	switch c {
	case '+', '-', '*', '/', '%', '&', '|', '^', '~', '!', '<', '>',
		'=', '?', ':', ';', ',', '.', '(', ')', '[', ']', '{', '}', '#', '@':
		lx.advance()
		return Token{Kind: TokSymbol, Text: string(c), Line: line, Col: col}, nil
	}
	return Token{}, errf(line, col, "unexpected character %q", string(c))
}

// lexNumber handles plain decimal literals, sized/based literals such as
// 8'hFF and 4'b10_10, and unsized based literals 'd15. The full literal text
// is preserved; numeric interpretation happens in the parser.
func (lx *Lexer) lexNumber(line, col int) (Token, error) {
	start := lx.pos
	for lx.pos < len(lx.src) && (isDigit(lx.peek()) || lx.peek() == '_') {
		lx.advance()
	}
	// Optional base part.
	if lx.peek() == '\'' {
		lx.advance()
		if lx.peek() == 's' || lx.peek() == 'S' {
			lx.advance()
		}
		b := lx.peek()
		if b != 'b' && b != 'B' && b != 'o' && b != 'O' && b != 'd' && b != 'D' && b != 'h' && b != 'H' {
			return Token{}, errf(line, col, "invalid base %q in numeric literal", string(b))
		}
		lx.advance()
		ndigits := 0
		for lx.pos < len(lx.src) && isBaseDigit(lx.peek()) {
			lx.advance()
			ndigits++
		}
		if ndigits == 0 {
			return Token{}, errf(line, col, "numeric literal missing digits after base")
		}
	}
	return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Line: line, Col: col}, nil
}
