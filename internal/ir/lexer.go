package ir

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds of the PIR text format.
type tokKind uint8

const (
	tEOF tokKind = iota
	tNewline
	tIdent  // bare identifier / keyword
	tReg    // %name
	tInt    // integer literal (possibly negative)
	tString // "quoted"
	tAt     // @
	tLParen // (
	tRParen // )
	tLBrace // {
	tRBrace // }
	tLBrack // [
	tRBrack // ]
	tComma  // ,
	tColon  // :
	tEq     // =
	tDot    // .
	tStar   // *
)

var tokNames = [...]string{
	tEOF: "EOF", tNewline: "newline", tIdent: "identifier", tReg: "register",
	tInt: "integer", tString: "string", tAt: "'@'", tLParen: "'('",
	tRParen: "')'", tLBrace: "'{'", tRBrace: "'}'", tLBrack: "'['",
	tRBrack: "']'", tComma: "','", tColon: "':'", tEq: "'='", tDot: "'.'",
	tStar: "'*'",
}

func (k tokKind) String() string { return tokNames[k] }

// token is one lexical token with its source position.
type token struct {
	kind tokKind
	text string
	ival int64
	line int
}

// Byte classes.  The lexer reads one byte at a time, so a byte above
// 0x7f stands for the Latin-1 rune of the same value: the table is
// built from the unicode predicates over exactly those runes.
const (
	cIdentStart uint8 = 1 << iota // letter or '_'
	cIdentCont                    // letter, digit or '_'
	cDigit                        // '0'-'9'
)

var (
	byteClass [256]uint8
	punctKind [256]tokKind // tEOF for a byte that is no punctuation token
)

func init() {
	for i := range byteClass {
		r := rune(i)
		if unicode.IsLetter(r) || r == '_' {
			byteClass[i] |= cIdentStart | cIdentCont
		}
		if unicode.IsDigit(r) {
			byteClass[i] |= cIdentCont
		}
		if '0' <= r && r <= '9' {
			byteClass[i] |= cDigit
		}
	}
	// The punctuation kinds tAt..tStar are declared in this order.
	for i, c := range []byte("@(){}[],:=.*") {
		punctKind[c] = tAt + tokKind(i)
	}
}

// lexer is a pull lexer over PIR source: next hands out one token at a
// time.  Newlines are significant (they terminate statements), so it
// emits tNewline tokens; consecutive newlines and comment-only lines
// collapse into one, no newline precedes the first token, and one
// always precedes tEOF.  After the first error, next returns tEOF and
// err holds the error.
type lexer struct {
	src  string
	pos  int
	line int
	last tokKind // kind of the last token handed out; tEOF before the first
	err  error
}

// errf records the lexer's error, ends its input and returns tEOF.
func (lx *lexer) errf(format string, args ...any) token {
	lx.err = fmt.Errorf("pir: line %d: %s", lx.line, fmt.Sprintf(format, args...))
	lx.pos = len(lx.src)
	return token{kind: tEOF, line: lx.line}
}

func (lx *lexer) tok(k tokKind, text string) token {
	lx.last = k
	return token{kind: k, text: text, line: lx.line}
}

// next returns the next token.
func (lx *lexer) next() token {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '\n':
			lx.pos++
			if lx.last != tEOF && lx.last != tNewline {
				t := lx.tok(tNewline, "\n")
				lx.line++
				return t
			}
			lx.line++
		case c == ';' || c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			if i := strings.IndexByte(lx.src[lx.pos:], '\n'); i >= 0 {
				lx.pos += i
			} else {
				lx.pos = len(lx.src)
			}
		case c == '%':
			return lx.lexReg()
		case c == '"':
			return lx.lexString()
		case c == '-' || byteClass[c]&cDigit != 0:
			return lx.lexInt()
		case byteClass[c]&cIdentStart != 0:
			start := lx.pos
			lx.skipIdent()
			return lx.tok(tIdent, lx.src[start:lx.pos])
		case punctKind[c] != tEOF:
			lx.pos++
			return lx.tok(punctKind[c], lx.src[lx.pos-1:lx.pos])
		default:
			return lx.errf("unexpected character %q", string(c))
		}
	}
	if lx.err == nil && lx.last != tEOF && lx.last != tNewline {
		return lx.tok(tNewline, "\n")
	}
	return token{kind: tEOF, line: lx.line}
}

// drain lexes the rest of the source, so that a lexical error anywhere
// in it is found even after the parser has stopped.
func (lx *lexer) drain() {
	for lx.next().kind != tEOF {
	}
}

func (lx *lexer) skipIdent() {
	for lx.pos < len(lx.src) && byteClass[lx.src[lx.pos]]&cIdentCont != 0 {
		lx.pos++
	}
}

// lexReg lexes %name, where name may contain dots only via the parser's
// place syntax (the lexer stops at '.').  Leading '.' after '%' is allowed
// for compiler temporaries such as %.t1.
func (lx *lexer) lexReg() token {
	lx.pos++ // skip %
	start := lx.pos
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
		lx.pos++
	}
	lx.skipIdent()
	if lx.pos == start {
		return lx.errf("empty register name after %%")
	}
	return lx.tok(tReg, lx.src[start:lx.pos])
}

// lexInt lexes an optionally negative decimal literal, which must fit
// in an int64.
func (lx *lexer) lexInt() token {
	start := lx.pos
	neg := lx.src[lx.pos] == '-'
	if neg {
		lx.pos++
	}
	var mag uint64 // magnitude, up to 1<<63 for the most negative literal
	over := false
	digits := lx.pos
	for lx.pos < len(lx.src) && byteClass[lx.src[lx.pos]]&cDigit != 0 {
		d := uint64(lx.src[lx.pos] - '0')
		if mag > (1<<63-d)/10 {
			over = true
		}
		mag = mag*10 + d
		lx.pos++
	}
	if lx.pos == digits {
		return lx.errf("malformed integer literal")
	}
	text := lx.src[start:lx.pos]
	if over || !neg && mag == 1<<63 {
		return lx.errf("integer literal %s out of range", text)
	}
	t := lx.tok(tInt, text)
	t.ival = int64(mag)
	if neg {
		t.ival = -t.ival
	}
	return t
}

func (lx *lexer) lexString() token {
	lx.pos++ // skip opening quote
	start := lx.pos
	for lx.pos < len(lx.src) && lx.src[lx.pos] != '"' && lx.src[lx.pos] != '\n' {
		lx.pos++
	}
	if lx.pos >= len(lx.src) || lx.src[lx.pos] != '"' {
		return lx.errf("unterminated string literal")
	}
	lx.pos++ // skip closing quote
	return lx.tok(tString, lx.src[start:lx.pos-1])
}
