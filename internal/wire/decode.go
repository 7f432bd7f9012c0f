// Package wire is the JSON codec behind the repository's two hand-decoded
// formats, the dataset file (internal/data) and the event-log line
// (internal/eventlog). It has no reflection: each format's decoder walks
// its own schema with a Lexer, and its encoder appends bytes with
// AppendString and AppendFloat.
//
// The contract is equivalence with encoding/json for the Go types those
// formats decode into. A Lexer accepts exactly the JSON that encoding/json
// accepts (RFC 8259 syntax, nesting at most 10000 deep) and decodes it with
// encoding/json's conventions: keys match struct fields exactly or else
// under its case folding (Field), unknown keys are skipped, null leaves a
// string or struct untouched and sets a slice, map or pointer to nil, and
// strings are unescaped with lone surrogates and invalid UTF-8 replaced by
// U+FFFD. A type mismatch is an error. The appenders write the bytes
// encoding/json writes, HTML-safe escapes included.
package wire

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: deeper input is an error.
const maxDepth = 10000

// A Lexer reads one JSON value from a byte slice. Errors are sticky: after
// the first one every read returns a zero value and every iteration ends,
// so a decoder checks Err once at the end.
type Lexer struct {
	buf     []byte
	pos     int
	depth   int
	first   bool // the container just opened has not yielded an element yet
	err     error
	scratch []byte // unescaped strings; reused, so valid until the next read
}

// Reset points the lexer at buf and clears its state, keeping the scratch
// buffer for reuse.
func (l *Lexer) Reset(buf []byte) {
	*l = Lexer{buf: buf, scratch: l.scratch[:0]}
}

// Err returns the first error the lexer met, or nil.
func (l *Lexer) Err() error { return l.err }

// fail records err (the first one wins) and moves to the end of the input
// so every later read stops.
func (l *Lexer) fail(msg string) {
	if l.err == nil {
		l.err = fmt.Errorf("wire: %s at offset %d", msg, l.pos)
	}
	l.pos = len(l.buf)
}

// syntax fails with a description of the byte at the current position.
func (l *Lexer) syntax(context string) {
	if l.pos >= len(l.buf) {
		l.fail("unexpected end of JSON input " + context)
		return
	}
	l.fail(fmt.Sprintf("invalid character %q %s", l.buf[l.pos], context))
}

// peek skips whitespace and returns the next byte, or 0 at the end (a NUL
// byte in the input also reads as 0; it is never valid JSON outside a
// string).
func (l *Lexer) peek() byte {
	for l.pos < len(l.buf) {
		switch c := l.buf[l.pos]; c {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return c
		}
	}
	return 0
}

// End requires that only whitespace follows the value read, as
// json.Unmarshal does.
func (l *Lexer) End() {
	if l.peek(); l.err == nil && l.pos < len(l.buf) {
		l.syntax("after top-level value")
	}
}

// Null consumes a null literal and reports whether there was one.
func (l *Lexer) Null() bool {
	if l.err != nil || l.peek() != 'n' {
		return false
	}
	l.literal("null")
	return l.err == nil
}

func (l *Lexer) literal(lit string) {
	if len(l.buf)-l.pos < len(lit) || string(l.buf[l.pos:l.pos+len(lit)]) != lit {
		for i := 0; i < len(lit) && l.pos < len(l.buf) && l.buf[l.pos] == lit[i]; i++ {
			l.pos++
		}
		l.syntax("in literal " + lit)
		return
	}
	l.pos += len(lit)
}

// mismatch fails a read that found a value of the wrong type.
func (l *Lexer) mismatch(want string) {
	if l.err != nil {
		return
	}
	switch c := l.peek(); {
	case c == 0:
		l.syntax("looking for beginning of value")
	case c == '{' || c == '[' || c == '"' || c == 't' || c == 'f' || c == 'n' || c == '-' || c >= '0' && c <= '9':
		// A well-formed value of the wrong type is an error for
		// encoding/json too; a malformed one is a syntax error for both.
		l.fail("cannot decode " + kindName(c) + " into " + want)
	default:
		l.syntax("looking for beginning of value")
	}
}

func kindName(c byte) string {
	switch c {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "bool"
	case 'n':
		return "null"
	}
	return "number"
}

// open consumes the opening byte of a container.
func (l *Lexer) open(c byte, want string) bool {
	if l.err != nil {
		return false
	}
	if l.peek() != c {
		l.mismatch(want)
		return false
	}
	l.pos++
	if l.depth++; l.depth > maxDepth {
		l.fail("exceeded max depth")
		return false
	}
	l.first = true
	return true
}

// next advances to the next element of the open container, consuming the
// separating comma, or consumes the closing byte and reports false.
func (l *Lexer) next(closer byte) bool {
	if l.err != nil {
		return false
	}
	first := l.first
	l.first = false
	c := l.peek()
	switch {
	case c == closer:
		l.pos++
		l.depth--
		return false
	case first:
		return true
	case c == ',':
		l.pos++
		return true
	}
	if closer == '}' {
		l.syntax("after object key:value pair")
	} else {
		l.syntax("after array element")
	}
	return false
}

// BeginObject consumes '{'; a value of another type is an error.
func (l *Lexer) BeginObject() bool { return l.open('{', "object") }

// BeginArray consumes '['; a value of another type is an error.
func (l *Lexer) BeginArray() bool { return l.open('[', "array") }

// Elem advances to the next element of the open array, or consumes its ']'
// and reports false.
func (l *Lexer) Elem() bool { return l.next(']') }

// Member advances to the next member of the open object and returns its
// unescaped key, positioned at the value; it consumes the '}' and reports
// false at the end. The key is valid until the next read.
func (l *Lexer) Member() ([]byte, bool) {
	if !l.next('}') {
		return nil, false
	}
	if l.peek() != '"' {
		l.syntax("looking for beginning of object key string")
		return nil, false
	}
	key := l.str()
	if l.peek() != ':' {
		l.syntax("after object key")
		return nil, false
	}
	l.pos++
	return key, l.err == nil
}

// Str decodes a string into *dst; null leaves *dst as it is. The string
// is a copy, so it does not pin the input.
func (l *Lexer) Str(dst *string) {
	switch l.peek() {
	case '"':
		if s := l.str(); l.err == nil {
			*dst = string(s)
		}
	case 'n':
		l.Null()
	default:
		l.mismatch("string")
	}
}

// str reads a string token at l.pos and returns its unescaped bytes: a
// view of the input when nothing needs rewriting, else of the scratch
// buffer.
func (l *Lexer) str() []byte {
	l.pos++ // opening quote
	start := l.pos
	for l.pos < len(l.buf) {
		c := l.buf[l.pos]
		switch {
		case c == '"':
			l.pos++
			return l.buf[start : l.pos-1]
		case c == '\\' || c < ' ':
			return l.strSlow(start)
		case c < utf8.RuneSelf:
			l.pos++
		default:
			r, size := utf8.DecodeRune(l.buf[l.pos:])
			if r == utf8.RuneError && size == 1 {
				return l.strSlow(start)
			}
			l.pos += size
		}
	}
	l.syntax("in string literal")
	return nil
}

// strSlow validates the rest of a string that needs unescaping or UTF-8
// repair, then rewrites it into the scratch buffer.
func (l *Lexer) strSlow(start int) []byte {
	for l.pos < len(l.buf) {
		switch c := l.buf[l.pos]; {
		case c == '"':
			l.pos++
			l.scratch = appendUnquoted(l.scratch[:0], l.buf[start:l.pos-1])
			return l.scratch
		case c < ' ':
			l.syntax("in string literal")
			return nil
		case c == '\\':
			l.pos++
			if l.pos >= len(l.buf) {
				break
			}
			switch l.buf[l.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				l.pos++
			case 'u':
				l.pos++
				for i := 0; i < 4; i++ {
					if l.pos >= len(l.buf) || !isHex(l.buf[l.pos]) {
						l.syntax("in \\u hexadecimal character escape")
						return nil
					}
					l.pos++
				}
			default:
				l.syntax("in string escape code")
				return nil
			}
		default:
			l.pos++
		}
	}
	l.syntax("in string literal")
	return nil
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// appendUnquoted appends the unescaped content of a validated string body
// to dst the way encoding/json unquotes: a surrogate pair combines, any
// other surrogate escape and every invalid UTF-8 byte become U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch s[r+1] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						dst = utf8.AppendRune(dst, dec)
						r += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, s[r+1])
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c = c - '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// number reads a number token and returns its bytes.
func (l *Lexer) number() []byte {
	start := l.pos
	if l.pos < len(l.buf) && l.buf[l.pos] == '-' {
		l.pos++
	}
	switch {
	case l.pos < len(l.buf) && l.buf[l.pos] == '0':
		l.pos++
	case l.pos < len(l.buf) && l.buf[l.pos] >= '1' && l.buf[l.pos] <= '9':
		l.digits()
	default:
		l.syntax("in numeric literal")
		return nil
	}
	if l.pos < len(l.buf) && l.buf[l.pos] == '.' {
		l.pos++
		if l.digits() == 0 {
			l.syntax("after decimal point in numeric literal")
			return nil
		}
	}
	if l.pos < len(l.buf) && (l.buf[l.pos] == 'e' || l.buf[l.pos] == 'E') {
		l.pos++
		if l.pos < len(l.buf) && (l.buf[l.pos] == '+' || l.buf[l.pos] == '-') {
			l.pos++
		}
		if l.digits() == 0 {
			l.syntax("in exponent of numeric literal")
			return nil
		}
	}
	return l.buf[start:l.pos]
}

func (l *Lexer) digits() int {
	n := 0
	for l.pos < len(l.buf) && l.buf[l.pos] >= '0' && l.buf[l.pos] <= '9' {
		l.pos++
		n++
	}
	return n
}

// isNumberStart reports whether c can begin a number token.
func isNumberStart(c byte) bool { return c == '-' || c >= '0' && c <= '9' }

// Float decodes a number as float64. A number out of float64's range is
// an error, as it is for encoding/json.
func (l *Lexer) Float() float64 {
	if c := l.peek(); l.err != nil || !isNumberStart(c) {
		l.mismatch("float64")
		return 0
	}
	tok := l.number()
	if l.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		l.fail("cannot decode number " + string(tok) + " into float64")
		return 0
	}
	return f
}

// Int decodes a number as int: only an integer literal in int's range
// decodes, as for encoding/json.
func (l *Lexer) Int() int {
	if c := l.peek(); l.err != nil || !isNumberStart(c) {
		l.mismatch("int")
		return 0
	}
	tok := l.number()
	if l.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		l.fail("cannot decode number " + string(tok) + " into int")
		return 0
	}
	return int(n)
}

// Skip consumes any one value, checking its syntax.
func (l *Lexer) Skip() {
	switch c := l.peek(); {
	case l.err != nil:
	case c == '{':
		l.BeginObject()
		for {
			if _, ok := l.Member(); !ok {
				break
			}
			l.Skip()
		}
	case c == '[':
		l.BeginArray()
		for l.Elem() {
			l.Skip()
		}
	case c == '"':
		l.str()
	case c == 't':
		l.literal("true")
	case c == 'f':
		l.literal("false")
	case c == 'n':
		l.literal("null")
	case isNumberStart(c):
		l.number()
	default:
		l.syntax("looking for beginning of value")
	}
}

// Slice decodes an array (or null) into s with encoding/json's slice
// semantics: null gives nil, elements decode over the existing backing
// array (a repeated key overlays the earlier value), and [] gives an
// empty, non-nil slice.
func Slice[T any](l *Lexer, s []T, elem func(*Lexer, *T)) []T {
	if l.Null() {
		return nil
	}
	if !l.BeginArray() {
		return s
	}
	i := 0
	for l.Elem() {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			var zero T
			s = append(s, zero)
		}
		elem(l, &s[i])
		i++
	}
	if i == 0 && s == nil {
		return []T{}
	}
	return s[:i]
}

// Map decodes an object (or null) into m with encoding/json's map
// semantics: null gives nil, members merge into an existing map (a
// repeated key replaces the earlier value), and each value decodes from
// scratch.
func Map[V any](l *Lexer, m map[string]V, elem func(*Lexer) V) map[string]V {
	if l.Null() {
		return nil
	}
	if !l.BeginObject() {
		return m
	}
	if m == nil {
		m = map[string]V{}
	}
	for {
		key, ok := l.Member()
		if !ok {
			return m
		}
		k := string(key) // before the value read reuses the key's bytes
		m[k] = elem(l)
	}
}

// Field returns the index of the name in names that encoding/json would
// decode key into — an exact match first, then a match under its case
// folding — or -1 when key matches none, so its value is skipped.
func Field(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	var kb, nb [32]byte
	folded := appendFolded(kb[:0], key)
	for i, n := range names {
		if string(folded) == string(appendFolded(nb[:0], []byte(n))) {
			return i
		}
	}
	return -1
}

// appendFolded is encoding/json's key folding: ASCII upper-cased, other
// runes mapped through unicode.ToUpper(unicode.ToLower(r)).
func appendFolded(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		out = utf8.AppendRune(out, unicode.ToUpper(unicode.ToLower(r)))
		i += n
	}
	return out
}
