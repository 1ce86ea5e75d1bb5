package ccc

import "fmt"

// Kind enumerates the type kinds of the ccc language.
type Kind int

// Type kinds.
const (
	KVoid   Kind = iota
	KInt         // signed 32-bit
	KUInt        // unsigned 32-bit
	KChar        // unsigned 8-bit
	KShort       // signed 16-bit
	KUShort      // unsigned 16-bit
	KPtr
	KArray
	KStruct
)

// Type describes a ccc type. Types are compared structurally, except
// structs, which are nominal.
type Type struct {
	Kind Kind
	Elem *Type       // Ptr, Array
	Len  int         // Array
	Str  *StructInfo // Struct
}

// StructInfo is a named struct layout: fields packed at their natural
// alignment, total size rounded up to the struct's alignment.
type StructInfo struct {
	Name   string
	Fields []StructField
	Size   int
	Align  int
}

// StructField is one member with its computed byte offset.
type StructField struct {
	Name string
	Ty   *Type
	Off  int
}

// Field looks a member up by name.
func (si *StructInfo) Field(name string) *StructField {
	for i := range si.Fields {
		if si.Fields[i].Name == name {
			return &si.Fields[i]
		}
	}
	return nil
}

// typeAlign returns the natural alignment of t.
func typeAlign(t *Type) int {
	switch t.Kind {
	case KChar:
		return 1
	case KShort, KUShort:
		return 2
	case KArray:
		return typeAlign(t.Elem)
	case KStruct:
		return t.Str.Align
	default:
		return 4
	}
}

// layoutStruct computes member offsets and the total size.
func layoutStruct(si *StructInfo) {
	off := 0
	align := 1
	for i := range si.Fields {
		a := typeAlign(si.Fields[i].Ty)
		if a > align {
			align = a
		}
		off = (off + a - 1) &^ (a - 1)
		si.Fields[i].Off = off
		off += si.Fields[i].Ty.Size()
	}
	si.Align = align
	si.Size = (off + align - 1) &^ (align - 1)
	if si.Size == 0 {
		si.Size = align
	}
}

var (
	tyVoid   = &Type{Kind: KVoid}
	tyInt    = &Type{Kind: KInt}
	tyUInt   = &Type{Kind: KUInt}
	tyChar   = &Type{Kind: KChar}
	tyShort  = &Type{Kind: KShort}
	tyUShort = &Type{Kind: KUShort}
)

func ptrTo(t *Type) *Type { return &Type{Kind: KPtr, Elem: t} }

// Size returns the byte size of a value of type t.
func (t *Type) Size() int {
	switch t.Kind {
	case KVoid:
		return 0
	case KChar:
		return 1
	case KShort, KUShort:
		return 2
	case KArray:
		return t.Len * t.Elem.Size()
	case KStruct:
		return t.Str.Size
	default:
		return 4
	}
}

// scalar returns the innermost element type of an array, or t itself: the
// unit one global initializer fills.
func (t *Type) scalar() *Type {
	for t.Kind == KArray {
		t = t.Elem
	}
	return t
}

// Signed reports whether values of t use signed arithmetic.
func (t *Type) Signed() bool { return t.Kind == KInt || t.Kind == KShort }

// IsInteger reports whether t is any integer type.
func (t *Type) IsInteger() bool {
	switch t.Kind {
	case KInt, KUInt, KChar, KShort, KUShort:
		return true
	}
	return false
}

func (t *Type) String() string {
	switch t.Kind {
	case KVoid:
		return "void"
	case KInt:
		return "int"
	case KUInt:
		return "uint"
	case KChar:
		return "char"
	case KShort:
		return "short"
	case KUShort:
		return "ushort"
	case KPtr:
		return t.Elem.String() + "*"
	case KArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case KStruct:
		return "struct " + t.Str.Name
	}
	return "?"
}

func sameType(a, b *Type) bool {
	if a == b {
		return true
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KPtr:
		return sameType(a.Elem, b.Elem)
	case KArray:
		return a.Len == b.Len && sameType(a.Elem, b.Elem)
	case KStruct:
		return a.Str == b.Str
	}
	return true
}

// Expression node kinds.
type exprKind int

const (
	eNum exprKind = iota
	eStr          // string literal (address of rodata bytes)
	eVar
	eUnary  // op in {'-','~','!','*','&'}
	eBinary // op: one of the binary operator strings
	eAssign // op "=" or compound like "+="
	eIncDec // op "++" or "--", Post flag
	eCall
	eIndex
	eCond // ?:
	eCast
	eSizeof
	eMember // x.name or x->name
)

type expr struct {
	kind exprKind
	line int

	num   int64
	str   string
	name  string
	op    string
	post  bool
	x     *expr // operand / lhs / cond / base
	y     *expr // rhs / index / then
	z     *expr // else
	args  []*expr
	toTy  *Type // cast/sizeof target
	ty    *Type // computed by sema
	sym   *symbol
	strID int // assigned rodata id for string literals
	// eMember: '->' access and the resolved member offset.
	arrow    bool
	fieldOff int
}

// Statement node kinds.
type stmtKind int

const (
	sExpr stmtKind = iota
	sDecl
	sIf
	sWhile
	sDoWhile
	sFor
	sReturn
	sBreak
	sContinue
	sBlock
	sEmpty
	sSwitch
)

type stmt struct {
	kind stmtKind
	line int

	e     *expr // expr / condition / return value
	init  *stmt // for-init
	post  *expr // for-post
	body  []*stmt
	els   []*stmt
	decls []*declarator // sDecl
	cases []*switchCase // sSwitch
}

// switchCase is one `case C...:` (or `default:`) arm with C's fallthrough
// semantics: execution runs into the next arm unless it breaks.
type switchCase struct {
	vals      []int64 // resolved case constants
	valExprs  []*expr
	isDefault bool
	body      []*stmt
}

type declarator struct {
	name string
	ty   *Type
	init *expr
	sym  *symbol
}

// Top-level declarations.

type global struct {
	name     string
	ty       *Type
	isConst  bool
	init     *expr   // scalar initializer
	initList []*expr // brace-list initializer values, in source order
	initAt   []int   // initList[i]'s row-major scalar index in the global
	initStr  string  // string initializer for char arrays
	line     int
	sym      *symbol
}

type function struct {
	name    string
	ret     *Type
	params  []*declarator
	body    []*stmt
	line    int
	sym     *symbol
	labelID int // assembler label of the entry point
	// frameSize is the local-variable area in bytes, set by sema.
	frameSize int
}

type unit struct {
	globals []*global
	funcs   []*function
}

// symbol is a resolved name: a global, a function, a parameter, or a local.
type symbol struct {
	name    string
	ty      *Type
	isFunc  bool
	isConst bool
	global  bool
	fn      *function // for isFunc
	// Locals/params: frame offset from the frame pointer (r7).
	frameOff int
	// Parameters passed on the stack (beyond the first four) have
	// stackArgIdx >= 0 and no frame slot.
	stackArgIdx int
	// reg, when non-zero, is the callee-saved register (r4-r6 or
	// r8-r11) this scalar local lives in instead of a frame slot.
	reg int
	// Globals: absolute address, assigned at layout time.
	addr uint32
}
