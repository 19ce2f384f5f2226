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
	case isNullExpr:
		v, err := ctx.eval(x.e)
		if err != nil {
			return Value{}, err
		}
		res := v.IsNull()
		if x.negate {
			res = !res
		}
		return boolVal(res), nil
	case unaryExpr:
		v, err := ctx.eval(x.e)
		if err != nil {
			return Value{}, err
		}
		switch x.op {
		case "NOT":
			if v.IsNull() {
				return Null(), nil
			}
			return boolVal(!truthy(v)), nil
		case "-":
			switch v.Kind() {
			case KindInt:
				return Int(-v.AsInt()), nil
			case KindReal:
				return Real(-v.AsReal()), nil
			case KindNull:
				return Null(), nil
			}
			return Value{}, fmt.Errorf("metadb: cannot negate %s value", v.Kind())
		}
		return Value{}, fmt.Errorf("metadb: unknown unary operator %q", x.op)
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
	// Short-circuit logic operators.
	switch x.op {
	case "AND":
		if !l.IsNull() && !truthy(l) {
			return boolVal(false), nil
		}
		r, err := ctx.eval(x.r)
		if err != nil {
			return Value{}, err
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return boolVal(truthy(l) && truthy(r)), nil
	case "OR":
		if !l.IsNull() && truthy(l) {
			return boolVal(true), nil
		}
		r, err := ctx.eval(x.r)
		if err != nil {
			return Value{}, err
		}
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return boolVal(truthy(l) || truthy(r)), nil
	}
	r, err := ctx.eval(x.r)
	if err != nil {
		return Value{}, err
	}
	switch x.op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c := compare(l, r)
		var res bool
		switch x.op {
		case "=":
			res = c == 0
		case "!=":
			res = c != 0
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return boolVal(res), nil
	case "+", "-", "*", "/":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		if x.op == "+" && l.Kind() == KindText && r.Kind() == KindText {
			return Text(l.AsText() + r.AsText()), nil
		}
		if !l.numeric() || !r.numeric() {
			return Value{}, fmt.Errorf("metadb: arithmetic on non-numeric values (%s %s %s)", l.Kind(), x.op, r.Kind())
		}
		if l.Kind() == KindInt && r.Kind() == KindInt && x.op != "/" {
			a, b := l.AsInt(), r.AsInt()
			switch x.op {
			case "+":
				return Int(a + b), nil
			case "-":
				return Int(a - b), nil
			case "*":
				return Int(a * b), nil
			}
		}
		a, b := l.AsReal(), r.AsReal()
		switch x.op {
		case "+":
			return Real(a + b), nil
		case "-":
			return Real(a - b), nil
		case "*":
			return Real(a * b), nil
		case "/":
			if b == 0 {
				return Null(), nil
			}
			if l.Kind() == KindInt && r.Kind() == KindInt {
				return Int(l.AsInt() / r.AsInt()), nil
			}
			return Real(a / b), nil
		}
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
		return v.AsReal() != 0
	case KindNull:
		return false
	}
	return true
}

func isConstExpr(e expr) bool {
	switch x := e.(type) {
	case litExpr, paramExpr:
		return true
	case unaryExpr:
		return isConstExpr(x.e)
	case binExpr:
		return x.op != "AND" && x.op != "OR" && isConstExpr(x.l) && isConstExpr(x.r)
	}
	return false
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
	case unaryExpr:
		return t.validateColumns(x.e)
	case isNullExpr:
		return t.validateColumns(x.e)
	}
	return nil
}
