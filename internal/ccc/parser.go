package ccc

import (
	"fmt"

	"repro/internal/armsim"
)

type parser struct {
	toks []token
	pos  int
	// depth is the nesting level of the node being parsed (see nest).
	depth int
	// structs maps defined struct names to their types (definition must
	// precede use, as in C for complete types).
	structs map[string]*Type
}

func parse(src string) (*unit, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, structs: make(map[string]*Type)}
	u := &unit{}
	for !p.at(tokEOF) {
		if err := p.topLevel(u); err != nil {
			return nil, err
		}
	}
	return u, nil
}

func (p *parser) cur() token { return p.toks[p.pos] }

// next consumes the current token. It never steps past the trailing EOF
// token, so a truncated source reaches the caller's "expected ..." error
// instead of indexing beyond toks.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) at(k tokKind) bool { return p.cur().kind == k }

func (p *parser) atPunct(s string) bool {
	return p.cur().kind == tokPunct && p.cur().text == s
}

func (p *parser) atKeyword(s string) bool {
	return p.cur().kind == tokKeyword && p.cur().text == s
}

func (p *parser) acceptPunct(s string) bool {
	if p.atPunct(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) acceptKeyword(s string) bool {
	if p.atKeyword(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, found %q", s, p.cur().text)
	}
	return nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &lexError{p.cur().line, fmt.Sprintf(format, args...)}
}

// maxNest bounds the depth of a parsed tree: statements inside statements,
// operands inside expressions, and pointer and array levels inside a type.
// The parser and every later pass recurse over these trees, so untrusted
// source nested without bound would otherwise grow the goroutine stack to
// Go's fatal limit. The MiBench programs nest at most 15 levels.
const maxNest = 1000

// nest enters one more level of nesting and fails past maxNest: once per
// statement, parenthesis, operator and pointer or array level, so every
// recursion of the parser passes through it. A function that nests
// restores the level it was entered at on return (defer
// p.unnest(p.depth)); a loop that builds a left-deep chain nests once per
// link.
func (p *parser) nest() error {
	p.depth++
	if p.depth > maxNest {
		return p.errf("nesting deeper than %d levels", maxNest)
	}
	return nil
}

func (p *parser) unnest(depth int) { p.depth = depth }

// atTypeStart reports whether the current token begins a type.
func (p *parser) atTypeStart() bool {
	if p.cur().kind != tokKeyword {
		return false
	}
	switch p.cur().text {
	case "void", "int", "uint", "char", "short", "ushort", "const", "struct":
		return true
	}
	return false
}

// parseBaseType consumes a base type (with optional const) and trailing '*'s.
func (p *parser) parseBaseType() (ty *Type, isConst bool, err error) {
	isConst = p.acceptKeyword("const")
	t := p.next()
	if t.kind != tokKeyword {
		return nil, false, p.errf("expected type, found %q", t.text)
	}
	switch t.text {
	case "void":
		ty = tyVoid
	case "int":
		ty = tyInt
	case "uint":
		ty = tyUInt
	case "char":
		ty = tyChar
	case "short":
		ty = tyShort
	case "ushort":
		ty = tyUShort
	case "struct":
		name := p.next()
		if name.kind != tokIdent {
			return nil, false, p.errf("expected struct name")
		}
		st, ok := p.structs[name.text]
		if !ok {
			return nil, false, p.errf("undefined struct %q", name.text)
		}
		ty = st
	default:
		return nil, false, p.errf("expected type, found %q", t.text)
	}
	if !isConst {
		isConst = p.acceptKeyword("const")
	}
	defer p.unnest(p.depth)
	for p.acceptPunct("*") {
		if err := p.nest(); err != nil {
			return nil, false, err
		}
		ty = ptrTo(ty)
	}
	return ty, isConst, nil
}

// parseArraySuffix parses trailing [N][M]... dimensions onto ty. An
// array whose length or byte size exceeds the target's memory can never be
// placed, so it is rejected here, before any later pass sizes a buffer,
// frame or image by it (and before Type.Size could overflow).
func (p *parser) parseArraySuffix(ty *Type) (*Type, error) {
	defer p.unnest(p.depth)
	var dims []token
	for p.acceptPunct("[") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokNumber {
			return nil, p.errf("array dimension must be a number literal")
		}
		if t.num > armsim.MemSize {
			return nil, &lexError{t.line, fmt.Sprintf("array dimension %d exceeds the %d-byte memory", t.num, armsim.MemSize)}
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		dims = append(dims, t)
	}
	for i := len(dims) - 1; i >= 0; i-- {
		ty = &Type{Kind: KArray, Elem: ty, Len: int(dims[i].num)}
		if ty.Size() > armsim.MemSize {
			return nil, &lexError{dims[i].line, fmt.Sprintf("array %s of %d bytes exceeds the %d-byte memory", ty, ty.Size(), armsim.MemSize)}
		}
	}
	return ty, nil
}

// parseStructDef parses `struct Name { members };` after the leading
// keyword has been detected.
func (p *parser) parseStructDef() error {
	p.pos++ // struct
	name := p.next()
	if name.kind != tokIdent {
		return p.errf("expected struct name")
	}
	if _, dup := p.structs[name.text]; dup {
		return p.errf("duplicate struct %q", name.text)
	}
	p.pos++ // {
	si := &StructInfo{Name: name.text}
	// Pre-register the incomplete type so members may point to it
	// (self-referential structs: struct Node { struct Node *next; }).
	p.structs[name.text] = &Type{Kind: KStruct, Str: si}
	for !p.atPunct("}") {
		if p.at(tokEOF) {
			return p.errf("unterminated struct %q", name.text)
		}
		fty, _, err := p.parseBaseType()
		if err != nil {
			return err
		}
		for {
			fn := p.next()
			if fn.kind != tokIdent {
				return p.errf("expected member name in struct %q", name.text)
			}
			mty, err := p.parseArraySuffix(fty)
			if err != nil {
				return err
			}
			if mty.Kind == KVoid {
				return p.errf("void member %q", fn.text)
			}
			if si.Field(fn.text) != nil {
				return p.errf("duplicate member %q in struct %q", fn.text, name.text)
			}
			if hasIncompleteStruct(mty) {
				return p.errf("member %q has incomplete type %s (use a pointer)", fn.text, mty)
			}
			si.Fields = append(si.Fields, StructField{Name: fn.text, Ty: mty})
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	p.pos++ // }
	if len(si.Fields) == 0 {
		delete(p.structs, name.text)
		return p.errf("empty struct %q", name.text)
	}
	layoutStruct(si)
	if si.Size > armsim.MemSize {
		return p.errf("struct %q of %d bytes exceeds the %d-byte memory", name.text, si.Size, armsim.MemSize)
	}
	return p.expectPunct(";")
}

// hasIncompleteStruct reports whether t embeds (by value, possibly through
// arrays) a struct whose layout is not yet computed.
func hasIncompleteStruct(t *Type) bool {
	switch t.Kind {
	case KStruct:
		return t.Str.Size == 0
	case KArray:
		return hasIncompleteStruct(t.Elem)
	}
	return false
}

func (p *parser) topLevel(u *unit) error {
	// `struct Name {` is a type definition; `struct Name ident` is a
	// declaration using the type.
	if p.atKeyword("struct") && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokIdent && p.toks[p.pos+2].kind == tokPunct &&
		p.toks[p.pos+2].text == "{" {
		return p.parseStructDef()
	}
	ty, isConst, err := p.parseBaseType()
	if err != nil {
		return err
	}
	nameTok := p.next()
	if nameTok.kind != tokIdent {
		return p.errf("expected identifier, found %q", nameTok.text)
	}
	if p.atPunct("(") {
		return p.parseFunction(u, ty, nameTok)
	}
	// One or more global declarators.
	for {
		gty, err := p.parseArraySuffix(ty)
		if err != nil {
			return err
		}
		g := &global{name: nameTok.text, ty: gty, isConst: isConst, line: nameTok.line}
		if p.acceptPunct("=") {
			if err := p.parseGlobalInit(g); err != nil {
				return err
			}
		}
		u.globals = append(u.globals, g)
		if p.acceptPunct(",") {
			nameTok = p.next()
			if nameTok.kind != tokIdent {
				return p.errf("expected identifier after ','")
			}
			continue
		}
		return p.expectPunct(";")
	}
}

// parseGlobalInit parses a global's initializer. A brace list follows C:
// a bare scalar fills the next element in row-major order, and a braced
// sub-list initializes the current subobject, zero-padded — one whole row
// of the outer array at a row boundary, the next element inside a row.
// initAt records where each value lands; the checker bounds the last.
func (p *parser) parseGlobalInit(g *global) error {
	if p.at(tokString) && g.ty.Kind == KArray && g.ty.Elem.Kind == KChar {
		g.initStr = p.next().text
		return nil
	}
	if !p.acceptPunct("{") {
		e, err := p.parseAssignExpr()
		if err != nil {
			return err
		}
		g.init = e
		return nil
	}
	rows, rowLen := 1, 1 // a non-array global is one one-element row
	if s := g.ty.scalar().Size(); g.ty.Kind == KArray && s > 0 {
		rows, rowLen = g.ty.Len, g.ty.Elem.Size()/s
	}
	next := 0 // scalar index the next value fills
	value := func() error {
		e, err := p.parseAssignExpr()
		if err != nil {
			return err
		}
		g.initList = append(g.initList, e)
		g.initAt = append(g.initAt, next)
		next++
		return nil
	}
	for !p.atPunct("}") {
		if !p.acceptPunct("{") {
			if err := value(); err != nil {
				return err
			}
		} else {
			start, span := next, 1
			if rowLen > 0 && start%rowLen == 0 {
				if start/rowLen >= rows {
					return p.errf("too many rows in initializer for %q", g.name)
				}
				span = rowLen
			}
			for !p.atPunct("}") {
				if next-start >= span {
					return p.errf("too many initializers in row of %q", g.name)
				}
				if err := value(); err != nil {
					return err
				}
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct("}"); err != nil {
				return err
			}
			next = start + span
		}
		if !p.acceptPunct(",") {
			break
		}
	}
	return p.expectPunct("}")
}

func (p *parser) parseFunction(u *unit, ret *Type, nameTok token) error {
	fn := &function{name: nameTok.text, ret: ret, line: nameTok.line}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	if p.acceptKeyword("void") && p.atPunct(")") {
		// (void) parameter list
	} else if !p.atPunct(")") {
		for {
			pty, _, err := p.parseBaseType()
			if err != nil {
				return err
			}
			pn := p.next()
			if pn.kind != tokIdent {
				return p.errf("expected parameter name")
			}
			pty, err = p.parseArraySuffix(pty)
			if err != nil {
				return err
			}
			if pty.Kind == KArray { // arrays decay to pointers in params
				pty = ptrTo(pty.Elem)
			}
			fn.params = append(fn.params, &declarator{name: pn.text, ty: pty})
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	fn.body = body
	u.funcs = append(u.funcs, fn)
	return nil
}

func (p *parser) parseBlock() ([]*stmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []*stmt
	for !p.atPunct("}") {
		if p.at(tokEOF) {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	p.pos++ // }
	return out, nil
}

func (p *parser) parseStmt() (*stmt, error) {
	defer p.unnest(p.depth)
	if err := p.nest(); err != nil {
		return nil, err
	}
	line := p.cur().line
	switch {
	case p.atPunct("{"):
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &stmt{kind: sBlock, body: body, line: line}, nil
	case p.atPunct(";"):
		p.pos++
		return &stmt{kind: sEmpty, line: line}, nil
	case p.atTypeStart():
		return p.parseDecl()
	case p.atKeyword("if"):
		p.pos++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		thenS, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s := &stmt{kind: sIf, e: cond, body: []*stmt{thenS}, line: line}
		if p.acceptKeyword("else") {
			elseS, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			s.els = []*stmt{elseS}
		}
		return s, nil
	case p.atKeyword("while"):
		p.pos++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &stmt{kind: sWhile, e: cond, body: []*stmt{body}, line: line}, nil
	case p.atKeyword("do"):
		p.pos++
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if !p.acceptKeyword("while") {
			return nil, p.errf("expected 'while' after do-body")
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &stmt{kind: sDoWhile, e: cond, body: []*stmt{body}, line: line}, nil
	case p.atKeyword("for"):
		p.pos++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		s := &stmt{kind: sFor, line: line}
		if !p.atPunct(";") {
			if p.atTypeStart() {
				d, err := p.parseDecl()
				if err != nil {
					return nil, err
				}
				s.init = d
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(";"); err != nil {
					return nil, err
				}
				s.init = &stmt{kind: sExpr, e: e, line: line}
			}
		} else {
			p.pos++
		}
		if !p.atPunct(";") {
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.e = cond
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		if !p.atPunct(")") {
			post, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.post = post
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		s.body = []*stmt{body}
		return s, nil
	case p.atKeyword("switch"):
		p.pos++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		s := &stmt{kind: sSwitch, e: cond, line: line}
		var cur *switchCase
		for !p.atPunct("}") {
			if p.at(tokEOF) {
				return nil, p.errf("unterminated switch")
			}
			switch {
			case p.atKeyword("case"):
				p.pos++
				v, err := p.parseCondExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(":"); err != nil {
					return nil, err
				}
				if cur == nil || len(cur.body) > 0 || cur.isDefault {
					cur = &switchCase{}
					s.cases = append(s.cases, cur)
				}
				cur.valExprs = append(cur.valExprs, v)
			case p.atKeyword("default"):
				p.pos++
				if err := p.expectPunct(":"); err != nil {
					return nil, err
				}
				cur = &switchCase{isDefault: true}
				s.cases = append(s.cases, cur)
			default:
				if cur == nil {
					return nil, p.errf("statement before first case label")
				}
				inner, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				cur.body = append(cur.body, inner)
			}
		}
		p.pos++ // }
		return s, nil
	case p.atKeyword("return"):
		p.pos++
		s := &stmt{kind: sReturn, line: line}
		if !p.atPunct(";") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.e = e
		}
		return s, p.expectPunct(";")
	case p.atKeyword("break"):
		p.pos++
		return &stmt{kind: sBreak, line: line}, p.expectPunct(";")
	case p.atKeyword("continue"):
		p.pos++
		return &stmt{kind: sContinue, line: line}, p.expectPunct(";")
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &stmt{kind: sExpr, e: e, line: line}, p.expectPunct(";")
}

func (p *parser) parseDecl() (*stmt, error) {
	line := p.cur().line
	base, _, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	s := &stmt{kind: sDecl, line: line}
	for {
		// Each declarator may add extra '*'s of its own.
		ty := base
		for p.acceptPunct("*") {
			ty = ptrTo(ty)
		}
		nameTok := p.next()
		if nameTok.kind != tokIdent {
			return nil, p.errf("expected identifier in declaration")
		}
		ty, err = p.parseArraySuffix(ty)
		if err != nil {
			return nil, err
		}
		d := &declarator{name: nameTok.text, ty: ty}
		if p.acceptPunct("=") {
			e, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			d.init = e
		}
		s.decls = append(s.decls, d)
		if !p.acceptPunct(",") {
			break
		}
	}
	return s, p.expectPunct(";")
}

// Expression parsing: precedence climbing.

func (p *parser) parseExpr() (*expr, error) { return p.parseAssignExpr() }

func (p *parser) parseAssignExpr() (*expr, error) {
	defer p.unnest(p.depth)
	lhs, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokPunct {
		op := p.cur().text
		switch op {
		case "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=":
			line := p.cur().line
			p.pos++
			if err := p.nest(); err != nil {
				return nil, err
			}
			rhs, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			return &expr{kind: eAssign, op: op, x: lhs, y: rhs, line: line}, nil
		}
	}
	return lhs, nil
}

func (p *parser) parseCondExpr() (*expr, error) {
	defer p.unnest(p.depth)
	cond, err := p.parseBinaryExpr(0)
	if err != nil {
		return nil, err
	}
	if p.atPunct("?") {
		line := p.cur().line
		p.pos++
		if err := p.nest(); err != nil {
			return nil, err
		}
		thenE, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		elseE, err := p.parseCondExpr()
		if err != nil {
			return nil, err
		}
		return &expr{kind: eCond, x: cond, y: thenE, z: elseE, line: line}, nil
	}
	return cond, nil
}

var binPrec = map[string]int{
	"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) parseBinaryExpr(minPrec int) (*expr, error) {
	defer p.unnest(p.depth)
	lhs, err := p.parseUnaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		if p.cur().kind != tokPunct {
			return lhs, nil
		}
		op := p.cur().text
		prec, ok := binPrec[op]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		line := p.cur().line
		p.pos++
		if err := p.nest(); err != nil {
			return nil, err
		}
		rhs, err := p.parseBinaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &expr{kind: eBinary, op: op, x: lhs, y: rhs, line: line}
	}
}

// nestedUnary parses the operand of a prefix operator or cast, one level
// deeper; the calling parseUnaryExpr restores the level.
func (p *parser) nestedUnary() (*expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	return p.parseUnaryExpr()
}

func (p *parser) parseUnaryExpr() (*expr, error) {
	defer p.unnest(p.depth)
	line := p.cur().line
	if p.cur().kind == tokPunct {
		switch op := p.cur().text; op {
		case "-", "~", "!", "*", "&":
			p.pos++
			x, err := p.nestedUnary()
			if err != nil {
				return nil, err
			}
			return &expr{kind: eUnary, op: op, x: x, line: line}, nil
		case "+":
			p.pos++
			return p.nestedUnary()
		case "++", "--":
			p.pos++
			x, err := p.nestedUnary()
			if err != nil {
				return nil, err
			}
			return &expr{kind: eIncDec, op: op, x: x, post: false, line: line}, nil
		case "(":
			// Could be a cast.
			if p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokKeyword {
				switch p.toks[p.pos+1].text {
				case "void", "int", "uint", "char", "short", "ushort", "const", "struct":
					p.pos++ // (
					ty, _, err := p.parseBaseType()
					if err != nil {
						return nil, err
					}
					if err := p.expectPunct(")"); err != nil {
						return nil, err
					}
					x, err := p.nestedUnary()
					if err != nil {
						return nil, err
					}
					return &expr{kind: eCast, toTy: ty, x: x, line: line}, nil
				}
			}
		}
	}
	if p.atKeyword("sizeof") {
		p.pos++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		ty, _, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		ty, err = p.parseArraySuffix(ty)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &expr{kind: eSizeof, toTy: ty, line: line}, nil
	}
	return p.parsePostfixExpr()
}

func (p *parser) parsePostfixExpr() (*expr, error) {
	defer p.unnest(p.depth)
	e, err := p.parsePrimaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		line := p.cur().line
		switch {
		case p.atPunct("["):
			p.pos++
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			e = &expr{kind: eIndex, x: e, y: idx, line: line}
		case p.atPunct("("):
			p.pos++
			call := &expr{kind: eCall, x: e, line: line}
			for !p.atPunct(")") {
				a, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				call.args = append(call.args, a)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			e = call
		case p.atPunct("."), p.atPunct("->"):
			arrow := p.next().text == "->"
			nm := p.next()
			if nm.kind != tokIdent {
				return nil, p.errf("expected member name after %q", map[bool]string{true: "->", false: "."}[arrow])
			}
			e = &expr{kind: eMember, x: e, name: nm.text, arrow: arrow, line: line}
		case p.atPunct("++"), p.atPunct("--"):
			op := p.next().text
			e = &expr{kind: eIncDec, op: op, x: e, post: true, line: line}
		default:
			return e, nil
		}
		if err := p.nest(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parsePrimaryExpr() (*expr, error) {
	defer p.unnest(p.depth)
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.pos++
		return &expr{kind: eNum, num: t.num, line: t.line}, nil
	case tokString:
		p.pos++
		return &expr{kind: eStr, str: t.text, line: t.line}, nil
	case tokIdent:
		p.pos++
		return &expr{kind: eVar, name: t.text, line: t.line}, nil
	case tokPunct:
		if t.text == "(" {
			p.pos++
			if err := p.nest(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return e, p.expectPunct(")")
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}
