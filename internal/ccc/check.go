package ccc

import (
	"fmt"

	"repro/internal/armsim"
)

// checker performs name resolution, type checking, frame layout, and
// constant folding of global initializers.
type checker struct {
	unit    *unit
	globals map[string]*symbol
	funcs   map[string]*function

	// string literal pool: id -> bytes (NUL-terminated)
	strings []string

	// current function state
	fn          *function
	scopes      []map[string]*symbol
	frameSize   int
	loopDepth   int
	switchDepth int
}

type checkError struct {
	line int
	msg  string
}

func (e *checkError) Error() string { return fmt.Sprintf("line %d: %s", e.line, e.msg) }

func (c *checker) errf(line int, format string, args ...interface{}) error {
	return &checkError{line, fmt.Sprintf(format, args...)}
}

func check(u *unit) (*checker, error) {
	c := &checker{
		unit:    u,
		globals: make(map[string]*symbol),
		funcs:   make(map[string]*function),
	}
	// Pass 1: declare globals and functions.
	for _, g := range u.globals {
		if _, dup := c.globals[g.name]; dup {
			return nil, c.errf(g.line, "duplicate global %q", g.name)
		}
		g.sym = &symbol{name: g.name, ty: g.ty, global: true, isConst: g.isConst, stackArgIdx: -1}
		c.globals[g.name] = g.sym
	}
	for _, f := range u.funcs {
		if _, dup := c.funcs[f.name]; dup {
			return nil, c.errf(f.line, "duplicate function %q", f.name)
		}
		if _, dup := c.globals[f.name]; dup {
			return nil, c.errf(f.line, "%q declared as both global and function", f.name)
		}
		f.sym = &symbol{name: f.name, ty: f.ret, isFunc: true, fn: f, stackArgIdx: -1}
		c.funcs[f.name] = f
	}
	if _, ok := c.funcs["main"]; !ok {
		return nil, fmt.Errorf("ccc: no main function")
	}
	// Pass 2: fold global initializers.
	for _, g := range u.globals {
		if err := c.checkGlobalInit(g); err != nil {
			return nil, err
		}
	}
	// Pass 3: check function bodies.
	for _, f := range u.funcs {
		if err := c.checkFunction(f); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *checker) checkGlobalInit(g *global) error {
	if g.init != nil {
		if _, err := c.foldConst(g.init); err != nil {
			return err
		}
	}
	for _, e := range g.initList {
		if _, err := c.foldConst(e); err != nil {
			return err
		}
	}
	scalar := g.ty.scalar()
	if scalar.Kind == KVoid {
		return c.errf(g.line, "global %q has void type", g.name)
	}
	if scalar.Kind == KStruct && (g.init != nil || g.initList != nil) {
		return c.errf(g.line, "struct global %q cannot have an initializer", g.name)
	}
	if n := len(g.initAt); n > 0 && (g.initAt[n-1]+1)*scalar.Size() > g.ty.Size() {
		return c.errf(g.line, "too many initializers for %q", g.name)
	}
	if g.initStr != "" && g.ty.Kind == KArray && g.ty.Len == 0 {
		// char s[] = "..." — size from the string.
		g.ty = &Type{Kind: KArray, Elem: tyChar, Len: len(g.initStr) + 1}
	}
	return nil
}

// foldConst evaluates a constant expression at compile time.
func (c *checker) foldConst(e *expr) (int64, error) {
	switch e.kind {
	case eNum:
		return e.num, nil
	case eSizeof:
		return int64(e.toTy.Size()), nil
	case eCast:
		v, err := c.foldConst(e.x)
		if err != nil {
			return 0, err
		}
		return truncateTo(v, e.toTy), nil
	case eUnary:
		v, err := c.foldConst(e.x)
		if err != nil {
			return 0, err
		}
		switch e.op {
		case "-":
			return -v, nil
		case "~":
			return int64(int32(^uint32(v))), nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case eBinary:
		a, err := c.foldConst(e.x)
		if err != nil {
			return 0, err
		}
		b, err := c.foldConst(e.y)
		if err != nil {
			return 0, err
		}
		ua, ub := uint32(a), uint32(b)
		switch e.op {
		case "+":
			return int64(int32(ua + ub)), nil
		case "-":
			return int64(int32(ua - ub)), nil
		case "*":
			return int64(int32(ua * ub)), nil
		case "/":
			if b == 0 {
				return 0, c.errf(e.line, "division by zero in constant")
			}
			return int64(int32(a) / int32(b)), nil
		case "%":
			if b == 0 {
				return 0, c.errf(e.line, "mod by zero in constant")
			}
			return int64(int32(a) % int32(b)), nil
		case "<<":
			return int64(int32(ua << (ub & 31))), nil
		case ">>":
			return int64(int32(a) >> (ub & 31)), nil
		case "&":
			return int64(int32(ua & ub)), nil
		case "|":
			return int64(int32(ua | ub)), nil
		case "^":
			return int64(int32(ua ^ ub)), nil
		}
	}
	return 0, c.errf(e.line, "expression is not a compile-time constant")
}

func truncateTo(v int64, ty *Type) int64 {
	switch ty.Kind {
	case KChar:
		return int64(uint8(v))
	case KShort:
		return int64(int16(v))
	case KUShort:
		return int64(uint16(v))
	case KUInt, KPtr:
		return int64(uint32(v))
	default:
		return int64(int32(v))
	}
}

func (c *checker) checkFunction(f *function) error {
	c.fn = f
	c.frameSize = 0
	c.scopes = []map[string]*symbol{make(map[string]*symbol)}
	c.loopDepth = 0
	if len(f.params) > 8 {
		return c.errf(f.line, "too many parameters in %q (max 8)", f.name)
	}
	if f.ret.Kind == KStruct {
		return c.errf(f.line, "function %q returns a struct by value (return a pointer instead)", f.name)
	}
	for i, p := range f.params {
		if p.ty.Kind == KStruct {
			return c.errf(f.line, "parameter %q is a struct by value (pass a pointer instead)", p.name)
		}
		sym := &symbol{name: p.name, ty: p.ty, stackArgIdx: -1}
		if i < 4 {
			sym.frameOff = c.allocSlot(4)
		} else {
			sym.stackArgIdx = i - 4
		}
		p.sym = sym
		if _, dup := c.scopes[0][p.name]; dup {
			return c.errf(f.line, "duplicate parameter %q", p.name)
		}
		c.scopes[0][p.name] = sym
	}
	for _, s := range f.body {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	// Round the frame to 8 bytes for AAPCS-friendly alignment.
	c.frameSize = (c.frameSize + 7) &^ 7
	if c.frameSize > armsim.MemSize {
		return c.errf(f.line, "locals of %q take %d bytes, more than the %d-byte memory", f.name, c.frameSize, armsim.MemSize)
	}
	f.frameSize = c.frameSize
	return nil
}

func (c *checker) allocSlot(size int) int {
	size = (size + 3) &^ 3
	off := c.frameSize
	c.frameSize += size
	return off
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, make(map[string]*symbol)) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) lookup(name string) *symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	if s, ok := c.globals[name]; ok {
		return s
	}
	if f, ok := c.funcs[name]; ok {
		return f.sym
	}
	return nil
}

func (c *checker) checkStmt(s *stmt) error {
	switch s.kind {
	case sEmpty:
		return nil
	case sExpr:
		_, err := c.checkExpr(s.e)
		return err
	case sDecl:
		for _, d := range s.decls {
			if d.ty.Kind == KVoid {
				return c.errf(s.line, "cannot declare void variable %q", d.name)
			}
			sym := &symbol{name: d.name, ty: d.ty, stackArgIdx: -1}
			sym.frameOff = c.allocSlot(d.ty.Size())
			d.sym = sym
			if _, dup := c.scopes[len(c.scopes)-1][d.name]; dup {
				return c.errf(s.line, "duplicate local %q", d.name)
			}
			c.scopes[len(c.scopes)-1][d.name] = sym
			if d.init != nil {
				if d.ty.Kind == KArray || d.ty.Kind == KStruct {
					return c.errf(s.line, "local aggregate %q cannot have an initializer", d.name)
				}
				if _, err := c.checkExpr(d.init); err != nil {
					return err
				}
			}
		}
		return nil
	case sBlock:
		c.pushScope()
		defer c.popScope()
		for _, inner := range s.body {
			if err := c.checkStmt(inner); err != nil {
				return err
			}
		}
		return nil
	case sIf:
		if _, err := c.checkExpr(s.e); err != nil {
			return err
		}
		c.pushScope()
		err := c.checkStmt(s.body[0])
		c.popScope()
		if err != nil {
			return err
		}
		if s.els != nil {
			c.pushScope()
			err := c.checkStmt(s.els[0])
			c.popScope()
			return err
		}
		return nil
	case sWhile, sDoWhile:
		if _, err := c.checkExpr(s.e); err != nil {
			return err
		}
		c.loopDepth++
		c.pushScope()
		err := c.checkStmt(s.body[0])
		c.popScope()
		c.loopDepth--
		return err
	case sFor:
		c.pushScope()
		defer c.popScope()
		if s.init != nil {
			if err := c.checkStmt(s.init); err != nil {
				return err
			}
		}
		if s.e != nil {
			if _, err := c.checkExpr(s.e); err != nil {
				return err
			}
		}
		if s.post != nil {
			if _, err := c.checkExpr(s.post); err != nil {
				return err
			}
		}
		c.loopDepth++
		err := c.checkStmt(s.body[0])
		c.loopDepth--
		return err
	case sReturn:
		if s.e != nil {
			if c.fn.ret.Kind == KVoid {
				return c.errf(s.line, "return with value in void function %q", c.fn.name)
			}
			_, err := c.checkExpr(s.e)
			return err
		}
		if c.fn.ret.Kind != KVoid {
			return c.errf(s.line, "return without value in %q", c.fn.name)
		}
		return nil
	case sBreak:
		if c.loopDepth == 0 && c.switchDepth == 0 {
			return c.errf(s.line, "break outside loop or switch")
		}
		return nil
	case sContinue:
		if c.loopDepth == 0 {
			return c.errf(s.line, "continue outside loop")
		}
		return nil
	case sSwitch:
		t, err := c.checkExpr(s.e)
		if err != nil {
			return err
		}
		if !decay(t).IsInteger() {
			return c.errf(s.line, "switch on non-integer %s", t)
		}
		seen := map[int64]bool{}
		defaults := 0
		c.switchDepth++
		defer func() { c.switchDepth-- }()
		for _, sc := range s.cases {
			for _, ve := range sc.valExprs {
				v, err := c.foldConst(ve)
				if err != nil {
					return err
				}
				if seen[v] {
					return c.errf(s.line, "duplicate case %d", v)
				}
				seen[v] = true
				sc.vals = append(sc.vals, v)
			}
			if sc.isDefault {
				defaults++
				if defaults > 1 {
					return c.errf(s.line, "multiple default cases")
				}
			}
			c.pushScope()
			for _, inner := range sc.body {
				if err := c.checkStmt(inner); err != nil {
					c.popScope()
					return err
				}
			}
			c.popScope()
		}
		return nil
	}
	return c.errf(s.line, "unhandled statement kind %d", s.kind)
}

// decay converts array-typed expressions to pointers in rvalue context.
func decay(t *Type) *Type {
	if t.Kind == KArray {
		return ptrTo(t.Elem)
	}
	return t
}

// arith computes the result type of an arithmetic binary operation after
// the usual (simplified) conversions.
func arith(a, b *Type) *Type {
	if a.Kind == KUInt || b.Kind == KUInt {
		return tyUInt
	}
	return tyInt
}

func (c *checker) checkExpr(e *expr) (*Type, error) {
	t, err := c.checkExprInner(e)
	if err != nil {
		return nil, err
	}
	e.ty = t
	return t, nil
}

func (c *checker) checkExprInner(e *expr) (*Type, error) {
	switch e.kind {
	case eNum:
		return tyInt, nil
	case eStr:
		e.strID = len(c.strings)
		c.strings = append(c.strings, e.str)
		return ptrTo(tyChar), nil
	case eVar:
		sym := c.lookup(e.name)
		if sym == nil {
			return nil, c.errf(e.line, "undefined identifier %q", e.name)
		}
		if sym.isFunc {
			return nil, c.errf(e.line, "function %q used as value (function pointers unsupported)", e.name)
		}
		e.sym = sym
		return sym.ty, nil
	case eUnary:
		xt, err := c.checkExpr(e.x)
		if err != nil {
			return nil, err
		}
		switch e.op {
		case "-", "~":
			if !decay(xt).IsInteger() {
				return nil, c.errf(e.line, "unary %s on non-integer", e.op)
			}
			return tyInt, nil
		case "!":
			return tyInt, nil
		case "*":
			dt := decay(xt)
			if dt.Kind != KPtr {
				return nil, c.errf(e.line, "dereference of non-pointer %s", xt)
			}
			return dt.Elem, nil
		case "&":
			if !isLvalue(e.x) {
				return nil, c.errf(e.line, "address of non-lvalue")
			}
			return ptrTo(xt), nil
		}
	case eBinary:
		xt, err := c.checkExpr(e.x)
		if err != nil {
			return nil, err
		}
		yt, err := c.checkExpr(e.y)
		if err != nil {
			return nil, err
		}
		dx, dy := decay(xt), decay(yt)
		switch e.op {
		case "&&", "||":
			return tyInt, nil
		case "==", "!=", "<", ">", "<=", ">=":
			return tyInt, nil
		case "+":
			if dx.Kind == KPtr && dy.IsInteger() {
				return dx, nil
			}
			if dy.Kind == KPtr && dx.IsInteger() {
				return dy, nil
			}
			if dx.Kind == KPtr || dy.Kind == KPtr {
				return nil, c.errf(e.line, "invalid pointer addition")
			}
			return arith(dx, dy), nil
		case "-":
			if dx.Kind == KPtr && dy.Kind == KPtr {
				return tyInt, nil
			}
			if dx.Kind == KPtr && dy.IsInteger() {
				return dx, nil
			}
			if dy.Kind == KPtr {
				return nil, c.errf(e.line, "invalid pointer subtraction")
			}
			return arith(dx, dy), nil
		default:
			if !dx.IsInteger() || !dy.IsInteger() {
				return nil, c.errf(e.line, "operator %s requires integers, got %s and %s", e.op, xt, yt)
			}
			return arith(dx, dy), nil
		}
	case eAssign:
		if !isLvalue(e.x) {
			return nil, c.errf(e.line, "assignment to non-lvalue")
		}
		xt, err := c.checkExpr(e.x)
		if err != nil {
			return nil, err
		}
		if xt.Kind == KArray {
			return nil, c.errf(e.line, "cannot assign to array")
		}
		if xt.Kind == KStruct {
			return nil, c.errf(e.line, "whole-struct assignment is not supported (copy members or use memcpy)")
		}
		if _, err := c.checkExpr(e.y); err != nil {
			return nil, err
		}
		return xt, nil
	case eIncDec:
		if !isLvalue(e.x) {
			return nil, c.errf(e.line, "%s on non-lvalue", e.op)
		}
		xt, err := c.checkExpr(e.x)
		if err != nil {
			return nil, err
		}
		if xt.Kind == KArray {
			return nil, c.errf(e.line, "%s on array", e.op)
		}
		return xt, nil
	case eCall:
		if e.x.kind != eVar {
			return nil, c.errf(e.line, "call target must be a function name")
		}
		name := e.x.name
		if name == "__output" {
			if len(e.args) != 1 {
				return nil, c.errf(e.line, "__output takes exactly one argument")
			}
			if _, err := c.checkExpr(e.args[0]); err != nil {
				return nil, err
			}
			return tyVoid, nil
		}
		f, ok := c.funcs[name]
		if !ok {
			return nil, c.errf(e.line, "call to undefined function %q", name)
		}
		if len(e.args) != len(f.params) {
			return nil, c.errf(e.line, "%q expects %d arguments, got %d", name, len(f.params), len(e.args))
		}
		for _, a := range e.args {
			if _, err := c.checkExpr(a); err != nil {
				return nil, err
			}
		}
		e.sym = f.sym
		return f.ret, nil
	case eIndex:
		bt, err := c.checkExpr(e.x)
		if err != nil {
			return nil, err
		}
		if _, err := c.checkExpr(e.y); err != nil {
			return nil, err
		}
		dt := decay(bt)
		if dt.Kind != KPtr {
			return nil, c.errf(e.line, "indexing non-array/pointer %s", bt)
		}
		return dt.Elem, nil
	case eCond:
		if _, err := c.checkExpr(e.x); err != nil {
			return nil, err
		}
		yt, err := c.checkExpr(e.y)
		if err != nil {
			return nil, err
		}
		if _, err := c.checkExpr(e.z); err != nil {
			return nil, err
		}
		return decay(yt), nil
	case eCast:
		if _, err := c.checkExpr(e.x); err != nil {
			return nil, err
		}
		return e.toTy, nil
	case eSizeof:
		return tyUInt, nil
	case eMember:
		xt, err := c.checkExpr(e.x)
		if err != nil {
			return nil, err
		}
		var si *StructInfo
		if e.arrow {
			if xt.Kind != KPtr || xt.Elem.Kind != KStruct {
				return nil, c.errf(e.line, "-> on non-struct-pointer %s", xt)
			}
			si = xt.Elem.Str
		} else {
			if xt.Kind != KStruct {
				return nil, c.errf(e.line, ". on non-struct %s", xt)
			}
			si = xt.Str
		}
		f := si.Field(e.name)
		if f == nil {
			return nil, c.errf(e.line, "struct %s has no member %q", si.Name, e.name)
		}
		e.fieldOff = f.Off
		return f.Ty, nil
	}
	return nil, c.errf(e.line, "unhandled expression kind %d", e.kind)
}

func isLvalue(e *expr) bool {
	switch e.kind {
	case eVar, eIndex:
		return true
	case eUnary:
		return e.op == "*"
	case eMember:
		if e.arrow {
			return true
		}
		return isLvalue(e.x)
	}
	return false
}
