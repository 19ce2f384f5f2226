package metadb

import (
	"fmt"
	"strconv"
	"strings"
)

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

type statement interface{ stmtNode() }

type columnDef struct {
	name string
	kind Kind
}

type createTableStmt struct {
	name        string
	ifNotExists bool
	cols        []columnDef
}

type createIndexStmt struct {
	name        string
	table       string
	columns     []string // one or more: composite indexes list several
	ifNotExists bool
}

type dropTableStmt struct {
	name     string
	ifExists bool
}

type insertStmt struct {
	table string
	cols  []string // empty means all columns in declaration order
	rows  [][]expr
}

type selectItem struct {
	star bool
	agg  string // "", "COUNT", "MAX", "MIN"
	expr expr   // nil for COUNT(*)
	name string // output column label
}

type selectStmt struct {
	items   []selectItem
	table   string
	where   expr
	orderBy []string // columns, each ascending
}

type deleteStmt struct {
	table string
	where expr
}

// explainStmt wraps a SELECT whose access plan — not its rows — is the
// result (EXPLAIN SELECT ...).
type explainStmt struct {
	sel selectStmt
}

func (createTableStmt) stmtNode() {}
func (createIndexStmt) stmtNode() {}
func (dropTableStmt) stmtNode()   {}
func (insertStmt) stmtNode()      {}
func (selectStmt) stmtNode()      {}
func (deleteStmt) stmtNode()      {}
func (explainStmt) stmtNode()     {}

// Expressions.

type expr interface{ exprNode() }

type litExpr struct{ v Value }
type colExpr struct{ name string }
type paramExpr struct{ idx int }
type binExpr struct {
	op   string
	l, r expr
}

func (litExpr) exprNode()   {}
func (colExpr) exprNode()   {}
func (paramExpr) exprNode() {}
func (binExpr) exprNode()   {}

// ---------------------------------------------------------------------------
// Parser: recursive descent over the token stream.
// ---------------------------------------------------------------------------

type parser struct {
	toks    []token
	pos     int
	nparams int
}

func parse(src string) (statement, int, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, 0, err
	}
	// Allow one trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, 0, fmt.Errorf("metadb: unexpected %s after statement", p.peek())
	}
	return stmt, p.nparams, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("metadb: expected %s, found %s", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return fmt.Errorf("metadb: expected %q, found %s", sym, p.peek())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", fmt.Errorf("metadb: expected identifier, found %s", t)
	}
	p.next()
	return t.text, nil
}

func (p *parser) parseStatement() (statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, fmt.Errorf("metadb: expected statement keyword, found %s", t)
	}
	switch t.text {
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "INSERT":
		return p.parseInsert()
	case "SELECT":
		return p.parseSelect()
	case "DELETE":
		return p.parseDelete()
	case "EXPLAIN":
		return p.parseExplain()
	}
	return nil, fmt.Errorf("metadb: unsupported statement %s", t)
}

func (p *parser) parseExplain() (statement, error) {
	p.next() // EXPLAIN
	if p.peek().kind != tokKeyword || p.peek().text != "SELECT" {
		return nil, fmt.Errorf("metadb: EXPLAIN supports only SELECT, found %s", p.peek())
	}
	inner, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return explainStmt{sel: inner.(selectStmt)}, nil
}

func (p *parser) parseIfNotExists() (bool, error) {
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return false, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

func (p *parser) parseCreate() (statement, error) {
	p.next() // CREATE
	switch {
	case p.acceptKeyword("TABLE"):
		ifne, err := p.parseIfNotExists()
		if err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var cols []columnDef
		for {
			cname, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			kind, err := p.parseColumnType()
			if err != nil {
				return nil, err
			}
			cols = append(cols, columnDef{cname, kind})
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return createTableStmt{name: name, ifNotExists: ifne, cols: cols}, nil
	case p.acceptKeyword("INDEX"):
		ifne, err := p.parseIfNotExists()
		if err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		table, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var cols []string
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			cols = append(cols, col)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return createIndexStmt{name: name, table: table, columns: cols, ifNotExists: ifne}, nil
	}
	return nil, fmt.Errorf("metadb: expected TABLE or INDEX after CREATE, found %s", p.peek())
}

func (p *parser) parseColumnType() (Kind, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return KindNull, fmt.Errorf("metadb: expected column type, found %s", t)
	}
	p.next()
	var k Kind
	switch t.text {
	case "INTEGER", "INT":
		k = KindInt
	case "REAL", "DOUBLE":
		k = KindReal
	case "TEXT", "VARCHAR":
		k = KindText
	case "BLOB":
		k = KindBlob
	default:
		return KindNull, fmt.Errorf("metadb: unknown column type %s", t)
	}
	// Optional length suffix like VARCHAR(64), ignored.
	if p.acceptSymbol("(") {
		if p.peek().kind != tokInt {
			return KindNull, fmt.Errorf("metadb: expected length in type, found %s", p.peek())
		}
		p.next()
		if err := p.expectSymbol(")"); err != nil {
			return KindNull, err
		}
	}
	return k, nil
}

func (p *parser) parseDrop() (statement, error) {
	p.next() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	ifExists := false
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return dropTableStmt{name: name, ifExists: ifExists}, nil
}

func (p *parser) parseInsert() (statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.acceptSymbol("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]expr
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	return insertStmt{table: table, cols: cols, rows: rows}, nil
}

func (p *parser) parseSelect() (statement, error) {
	p.next() // SELECT
	var items []selectItem
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := selectStmt{items: items, table: table}
	if p.acceptKeyword("WHERE") {
		stmt.where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			p.acceptKeyword("ASC")
			stmt.orderBy = append(stmt.orderBy, col)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	return stmt, nil
}

func (p *parser) parseSelectItem() (selectItem, error) {
	t := p.peek()
	if t.kind == tokSymbol && t.text == "*" {
		p.next()
		return selectItem{star: true}, nil
	}
	if agg := aggName(t); agg != "" && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
		p.next()
		if err := p.expectSymbol("("); err != nil {
			return selectItem{}, err
		}
		if agg == "COUNT" && p.acceptSymbol("*") {
			if err := p.expectSymbol(")"); err != nil {
				return selectItem{}, err
			}
			return selectItem{agg: agg, name: "COUNT(*)"}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return selectItem{}, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return selectItem{}, err
		}
		name := agg + "(...)"
		if ce, ok := e.(colExpr); ok {
			name = agg + "(" + ce.name + ")"
		}
		return selectItem{agg: agg, expr: e, name: name}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return selectItem{}, err
	}
	name := "expr"
	if ce, ok := e.(colExpr); ok {
		name = ce.name
	}
	return selectItem{expr: e, name: name}, nil
}

func (p *parser) parseDelete() (statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := deleteStmt{table: table}
	if p.acceptKeyword("WHERE") {
		var err error
		stmt.where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

// Expression grammar, lowest precedence first:
//
//	expr     := cmpExpr (AND cmpExpr)*
//	cmpExpr  := primary (( = | != | <> | < | <= | > | >= ) primary)?
//	primary  := literal | - number | ? | ident | ( expr )
func (p *parser) parseExpr() (expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = binExpr{"AND", l, r}
	}
	return l, nil
}

func (p *parser) parseCmp() (expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			p.next()
			r, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "<>" {
				op = "!="
			}
			return binExpr{op, l, r}, nil
		}
	}
	return l, nil
}

// parsePrimary reads one operand. A minus sign belongs to the number
// after it, so negative literals stay typeable with no arithmetic.
func (p *parser) parsePrimary() (expr, error) {
	t := p.peek()
	sign := ""
	if t.kind == tokSymbol && t.text == "-" {
		if n := p.toks[p.pos+1]; n.kind == tokInt || n.kind == tokFloat {
			p.next()
			t, sign = n, "-"
		}
	}
	switch t.kind {
	case tokInt:
		p.next()
		v, err := strconv.ParseInt(sign+t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("metadb: bad integer literal %q", sign+t.text)
		}
		return litExpr{Int(v)}, nil
	case tokFloat:
		p.next()
		v, err := strconv.ParseFloat(sign+t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("metadb: bad float literal %q", sign+t.text)
		}
		return litExpr{Real(v)}, nil
	case tokString:
		p.next()
		return litExpr{Text(t.text)}, nil
	case tokParam:
		p.next()
		e := paramExpr{p.nparams}
		p.nparams++
		return e, nil
	case tokIdent:
		p.next()
		return colExpr{t.text}, nil
	case tokKeyword:
		if t.text == "NULL" {
			p.next()
			return litExpr{}, nil
		}
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("metadb: unexpected %s in expression", t)
}

// aggName reports the aggregate function a token names ("" if none).
// Aggregates are contextual keywords: `min` is an aggregate only when
// called as min(...), and an ordinary column name otherwise.
func aggName(t token) string {
	if t.kind != tokIdent {
		return ""
	}
	switch strings.ToUpper(t.text) {
	case "COUNT", "MAX", "MIN":
		return strings.ToUpper(t.text)
	}
	return ""
}

// normalizeIdent lower-cases identifiers so the dialect is
// case-insensitive for table and column names.
func normalizeIdent(s string) string { return strings.ToLower(s) }
