// Package tql implements the Tensor Query Language (§4.4): a SQL dialect
// extended with NumPy-style multi-dimensional indexing, numeric array
// functions, rebalancing (ARRANGE BY), weighted sampling (SAMPLE BY) and
// versioned queries (VERSION), compiled to a logical plan and executed
// directly against Tensor Storage Format datasets. Query results are views
// (repro/internal/view) that stream to the dataloader or materialize to a
// fresh dataset.
//
// # Execution model
//
// Queries run on a chunk-partitioned parallel scan engine (ExecuteWith,
// Options.Workers). The row space is partitioned along the chunk
// boundaries of the first tensor the filter references, partitions are the
// steps of a core.Walk, the ordered walk the dataloader and transforms also
// run on — each worker reusing one environment whose per-tensor
// ScanReaders fetch and decode every chunk it owns once — and
// per-partition results merge positionally, so results, and the error of a
// failing scan, are identical at any worker count. A WHERE clause's leading
// run of shape-only conjuncts is answered from the shape encoder with zero
// chunk IO (shape-encoder pushdown) — only a sequence row whose items
// differ in shape is read — once per run of rows whose shapes agree when
// runs average Workers rows or more and once per row otherwise, with the
// remainder evaluated only over the pushdown's surviving rows — in textual order, so AND short-circuit guards keep
// protecting later conjuncts. ORDER BY … LIMIT keeps only the rows the
// limit and offset need (top-k). Compile renders these stages; for
//
//	SELECT images FROM ds WHERE SHAPE(images)[0] > 100 AND MEAN(images) > 50
//
// Explain prints:
//
//	scan ds [chunk-partitioned]
//	prefetch chunk strips [cross-partition coalesced origin fetch]
//	prefilter (SHAPE(images)[0] > 100) [shape-encoder pushdown: no chunk IO but a read of a sequence row whose items differ in shape; one check per shape run when runs average Workers rows or more, else per row]
//	filter (MEAN(images) > 50) [parallel chunk scan] [chunk-at-a-time over raw numeric tensors]
//	project images
//
// while a fully shape-only WHERE compiles to a single "filter ...
// [shape-encoder pushdown: ...]" stage.
package tql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp // punctuation and operators
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

// keywords recognized case-insensitively; stored upper-case.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "ORDER": true, "GROUP": true,
	"ARRANGE": true, "BY": true, "LIMIT": true, "OFFSET": true, "AS": true,
	"ASC": true, "DESC": true, "AND": true, "OR": true, "NOT": true,
	"SAMPLE": true, "VERSION": true, "TRUE": true, "FALSE": true,
}

type lexer struct {
	src    string
	pos    int
	tokens []token
}

// lex splits a query string into tokens.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case isIdentStart(rune(c)):
			l.ident()
		case c >= '0' && c <= '9':
			if err := l.number(); err != nil {
				return nil, err
			}
		case c == '"' || c == '\'':
			if err := l.str(c); err != nil {
				return nil, err
			}
		default:
			if err := l.op(); err != nil {
				return nil, err
			}
		}
	}
	l.tokens = append(l.tokens, token{kind: tokEOF, pos: l.pos})
	return l.tokens, nil
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '/'
}

func (l *lexer) ident() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	text := l.src[start:l.pos]
	if keywords[strings.ToUpper(text)] {
		text = strings.ToUpper(text)
	}
	l.tokens = append(l.tokens, token{kind: tokIdent, text: text, pos: start})
}

func (l *lexer) number() error {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' {
			if seenDot {
				return fmt.Errorf("tql: malformed number at %d", start)
			}
			seenDot = true
			l.pos++
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		l.pos++
	}
	l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
	return nil
}

func (l *lexer) str(quote byte) error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: sb.String(), pos: start})
			return nil
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			c = l.src[l.pos]
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("tql: unterminated string at %d", start)
}

var twoCharOps = map[string]bool{
	"==": true, "!=": true, ">=": true, "<=": true,
}

func (l *lexer) op() error {
	if l.pos+1 < len(l.src) && twoCharOps[l.src[l.pos:l.pos+2]] {
		l.tokens = append(l.tokens, token{kind: tokOp, text: l.src[l.pos : l.pos+2], pos: l.pos})
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '+', '-', '*', '/', '%', '=', '<', '>', '(', ')', '[', ']', ',', ':':
		l.tokens = append(l.tokens, token{kind: tokOp, text: string(c), pos: l.pos})
		l.pos++
		return nil
	}
	return fmt.Errorf("tql: unexpected character %q at %d", c, l.pos)
}
