package metadb

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokParam  // ?
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; identifiers keep their case
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of statement"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords of the dialect.
var keywords = map[string]bool{
	"CREATE": true, "TABLE": true, "INDEX": true, "ON": true, "DROP": true,
	"IF": true, "NOT": true, "EXISTS": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"SELECT": true, "FROM": true, "WHERE": true,
	"ORDER": true, "BY": true, "ASC": true,
	"UPDATE": true, "DELETE": true, "EXPLAIN": true,
	"AND": true, "NULL": true,
	"INTEGER": true, "INT": true, "REAL": true, "DOUBLE": true,
	"TEXT": true, "VARCHAR": true, "BLOB": true,
	// Aggregate function names (COUNT/MAX/MIN) are deliberately NOT
	// keywords: they are recognized contextually when followed by "(",
	// so they remain usable as column names (the paper's run_table has
	// a column literally called "min").
}

// lex splits a statement into tokens.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '?':
			toks = append(toks, token{tokParam, "?", i})
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			closed := false
			for j < n {
				if src[j] == '\'' {
					if j+1 < n && src[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					closed = true
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			if !closed {
				return nil, fmt.Errorf("metadb: unterminated string at position %d", i)
			}
			toks = append(toks, token{tokString, sb.String(), i})
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			isFloat := false
			for j < n && (isDigit(src[j]) || src[j] == '.' || src[j] == 'e' || src[j] == 'E' ||
				((src[j] == '+' || src[j] == '-') && j > i && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				if src[j] == '.' || src[j] == 'e' || src[j] == 'E' {
					isFloat = true
				}
				j++
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			toks = append(toks, token{kind, src[i:j], i})
			i = j
		case isIdentStart(rune(c)):
			j := i
			for j < n && isIdentPart(rune(src[j])) {
				j++
			}
			word := src[i:j]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, token{tokKeyword, upper, i})
			} else {
				toks = append(toks, token{tokIdent, word, i})
			}
			i = j
		default:
			// Multi-char operators first.
			if i+1 < n {
				two := src[i : i+2]
				if two == "<=" || two == ">=" || two == "!=" || two == "<>" {
					toks = append(toks, token{tokSymbol, two, i})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', '*', '=', '<', '>', '-', ';', '.':
				toks = append(toks, token{tokSymbol, string(c), i})
				i++
			default:
				return nil, fmt.Errorf("metadb: unexpected character %q at position %d", c, i)
			}
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
