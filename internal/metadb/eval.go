package metadb

import "fmt"

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

// evalCtx binds an expression to an optional current row.
type evalCtx struct {
	t      *tableData
	row    []Value
	params []Value
}

func (ctx *evalCtx) eval(e expr) (Value, error) {
	switch x := e.(type) {
	case litExpr:
		return x.v, nil
	case paramExpr:
		return ctx.params[x.idx], nil
	case colExpr:
		if ctx.t == nil || ctx.row == nil {
			return Value{}, fmt.Errorf("metadb: column %q referenced outside row context", x.name)
		}
		pos, ok := ctx.t.colIdx[normalizeIdent(x.name)]
		if !ok {
			return Value{}, fmt.Errorf("metadb: no column %q in table %q", x.name, ctx.t.name)
		}
		return ctx.row[pos], nil
	case binExpr:
		return ctx.evalBinary(x)
	}
	return Value{}, fmt.Errorf("metadb: unhandled expression %T", e)
}

func (ctx *evalCtx) evalBinary(x binExpr) (Value, error) {
	l, err := ctx.eval(x.l)
	if err != nil {
		return Value{}, err
	}
	// AND short-circuits on a false left side.
	if x.op == "AND" && !l.IsNull() && !truthy(l) {
		return boolVal(false), nil
	}
	r, err := ctx.eval(x.r)
	if err != nil {
		return Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return Value{}, nil
	}
	if x.op == "AND" { // l is true here
		return boolVal(truthy(r)), nil
	}
	c := compare(l, r)
	switch x.op {
	case "=":
		return boolVal(c == 0), nil
	case "!=":
		return boolVal(c != 0), nil
	case "<":
		return boolVal(c < 0), nil
	case "<=":
		return boolVal(c <= 0), nil
	case ">":
		return boolVal(c > 0), nil
	case ">=":
		return boolVal(c >= 0), nil
	}
	return Value{}, fmt.Errorf("metadb: unknown operator %q", x.op)
}

func boolVal(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}

func truthy(v Value) bool {
	switch v.Kind() {
	case KindInt:
		return v.AsInt() != 0
	case KindReal:
		return v.real() != 0
	case KindNull:
		return false
	}
	return true
}

// matches reports whether a row satisfies a WHERE clause (nil: all do).
func (ctx *evalCtx) matches(where expr, row []Value) (bool, error) {
	if where == nil {
		return true, nil
	}
	ctx.row = row
	v, err := ctx.eval(where)
	return err == nil && !v.IsNull() && truthy(v), err
}

// validateColumns rejects references to columns the table lacks, so
// malformed queries fail even when no rows would be scanned.
func (t *tableData) validateColumns(e expr) error {
	switch x := e.(type) {
	case nil, litExpr, paramExpr:
		return nil
	case colExpr:
		if _, ok := t.colIdx[normalizeIdent(x.name)]; !ok {
			return fmt.Errorf("metadb: no column %q in table %q", x.name, t.name)
		}
		return nil
	case binExpr:
		if err := t.validateColumns(x.l); err != nil {
			return err
		}
		return t.validateColumns(x.r)
	}
	return nil
}
