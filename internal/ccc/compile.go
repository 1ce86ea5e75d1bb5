package ccc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/armsim"
)

// ReservedBytes is the size of the Clank runtime reserve at the top of
// memory: two double-buffered checkpoint slots, the checkpoint pointer, the
// progress-watchdog bookkeeping variables, and the Write-back scratchpad
// (paper sections 3.1.2 and 4.1-4.2).
const ReservedBytes = 2048

// Image is a bootable memory image for the armsim machine plus the metadata
// the Clank hardware and runtime need.
type Image struct {
	// Bytes is the initial memory content starting at address 0 (vector
	// table, text, rodata, data). BSS beyond it is zero.
	Bytes []byte

	TextStart uint32 // first text byte (after the vector table)
	TextEnd   uint32 // end of text+rodata: the paper's "TEXT segment"
	DataStart uint32
	DataEnd   uint32 // end of initialized+zero data

	Entry        uint32 // reset vector (Thumb bit set)
	InitialSP    uint32
	ReservedBase uint32 // start of the Clank runtime reserve

	// Symbols maps function and global names to addresses.
	Symbols map[string]uint32

	// BaseCodeBytes is the image footprint without Clank support code;
	// ClankCodeBytes is the added checkpoint/restart support (Table 1's
	// size-increase column).
	BaseCodeBytes  int
	ClankCodeBytes int
}

// SizeIncrease returns the fractional code-size growth due to Clank support
// routines (Table 1).
func (img *Image) SizeIncrease() float64 {
	return float64(img.ClankCodeBytes) / float64(img.BaseCodeBytes)
}

// Options tunes code generation, mainly for ablation studies of how
// compiler quality affects the measured Clank overheads (see
// EXPERIMENTS.md): a compiler that keeps hot locals in memory manufactures
// idempotency violations on every loop iteration.
type Options struct {
	// DisableRegAlloc keeps every local in a stack frame slot (like
	// compiling at -O0).
	DisableRegAlloc bool
	// DisableDirectOperands routes every binary-operator operand through
	// a stack temporary (the naive stack-machine lowering).
	DisableDirectOperands bool
	// DisableAddrFusion keeps indexed loads/stores as explicit
	// shift-then-add address computation followed by an immediate-offset
	// access, instead of folding the scaled index into a register-offset
	// load/store (and the sign-extension of short loads into LDRSH).
	DisableAddrFusion bool
}

// Compile builds a bootable image from ccc source with default (optimized)
// code generation. The runtime library (software division,
// memset/memcpy/strlen) is linked into every image.
func Compile(src string) (*Image, error) {
	return CompileWithOptions(src, Options{})
}

// CompileWithOptions is Compile with explicit code-generation options.
func CompileWithOptions(src string, opts Options) (*Image, error) {
	rt, err := parse(runtimeSource)
	if err != nil {
		return nil, fmt.Errorf("ccc: internal runtime error: %w", err)
	}
	user, err := parse(src)
	if err != nil {
		return nil, err
	}
	u := &unit{
		globals: append(rt.globals, user.globals...),
		funcs:   append(rt.funcs, user.funcs...),
	}
	ck, err := check(u)
	if err != nil {
		return nil, err
	}
	g := newGen(ck)
	g.opts = opts
	a := g.a

	// crt0: the reset vector lands here; call main, then halt.
	crt0 := a.newLabel()
	for _, f := range u.funcs {
		f.labelID = a.newLabel()
	}
	mainFn := ck.funcs["main"]
	a.place(crt0)
	a.bl(mainFn.labelID)
	a.op(opBKPT)

	// Clank support routines (checkpoint save/restore). The intermittent
	// machine models their execution cost natively; they are emitted for
	// size fidelity (Table 1's size-increase column).
	clankOps := emitClankSupport(a)

	for _, f := range u.funcs {
		g.genFunction(f)
	}
	if g.err != nil {
		return nil, g.err
	}

	const textBase = 8
	text, patches, labelAddr, err := a.assemble(textBase)
	if err != nil {
		return nil, err
	}

	// Layout: rodata (const globals, strings) directly after code — it is
	// part of the paper's TEXT segment — then mutable data.
	addr := align4(textBase + uint32(len(text)))
	type blob struct {
		sym  *symbol
		data []byte
	}
	var roBlobs, rwBlobs []blob
	total := 0
	for _, gl := range u.globals {
		// Each global fits the memory (parseArraySuffix); bound their sum
		// before rendering them too, so a long list of large globals fails
		// here instead of allocating every one and wrapping addr.
		if total += gl.ty.Size(); total > armsim.MemSize {
			return nil, &checkError{gl.line, fmt.Sprintf("program too large: global %q ends past the %d-byte memory", gl.name, armsim.MemSize)}
		}
		b, err := globalBytes(ck, gl)
		if err != nil {
			return nil, err
		}
		if gl.isConst {
			roBlobs = append(roBlobs, blob{gl.sym, b})
		} else {
			rwBlobs = append(rwBlobs, blob{gl.sym, b})
		}
	}
	for i, s := range ck.strings {
		roBlobs = append(roBlobs, blob{g.strSyms[i], append([]byte(s), 0)})
	}
	for i := range roBlobs {
		roBlobs[i].sym.addr = addr
		addr = align4(addr + uint32(len(roBlobs[i].data)))
	}
	textEnd := addr
	dataStart := addr
	for i := range rwBlobs {
		rwBlobs[i].sym.addr = addr
		addr = align4(addr + uint32(len(rwBlobs[i].data)))
	}
	dataEnd := addr

	reservedBase := uint32(armsim.MemSize - ReservedBytes)
	if dataEnd+4096 > reservedBase {
		return nil, fmt.Errorf("ccc: program too large: data ends at %#x, stack/reserve at %#x", dataEnd, reservedBase)
	}

	img := make([]byte, dataEnd)
	binary.LittleEndian.PutUint32(img[0:], reservedBase)      // initial SP
	binary.LittleEndian.PutUint32(img[4:], labelAddr[crt0]|1) // reset vector
	copy(img[textBase:], text)
	for _, b := range roBlobs {
		copy(img[b.sym.addr:], b.data)
	}
	for _, b := range rwBlobs {
		copy(img[b.sym.addr:], b.data)
	}
	// Patch symbolic literal-pool slots.
	for _, p := range patches {
		v := p.sym.addr + p.add
		if p.thumb {
			v |= 1
		}
		binary.LittleEndian.PutUint32(img[textBase+p.off:], v)
	}

	symbols := make(map[string]uint32)
	for _, f := range u.funcs {
		symbols[f.name] = labelAddr[f.labelID]
	}
	for _, gl := range u.globals {
		symbols[gl.name] = gl.sym.addr
	}

	return &Image{
		Bytes:          img,
		TextStart:      textBase,
		TextEnd:        textEnd,
		DataStart:      dataStart,
		DataEnd:        dataEnd,
		Entry:          labelAddr[crt0] | 1,
		InitialSP:      reservedBase,
		ReservedBase:   reservedBase,
		Symbols:        symbols,
		BaseCodeBytes:  len(img) - clankOps*2,
		ClankCodeBytes: clankOps * 2,
	}, nil
}

func align4(v uint32) uint32 { return (v + 3) &^ 3 }

// globalBytes renders a global's initializer into little-endian bytes.
func globalBytes(ck *checker, gl *global) ([]byte, error) {
	size := gl.ty.Size()
	b := make([]byte, (size+3)&^3)
	put := func(off int, v int64, ty *Type) {
		switch ty.Size() {
		case 1:
			b[off] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(b[off:], uint16(v))
		default:
			binary.LittleEndian.PutUint32(b[off:], uint32(v))
		}
	}
	switch {
	case gl.initStr != "":
		copy(b, gl.initStr)
	case gl.initList != nil:
		elem := gl.ty.scalar()
		es := elem.Size()
		for i, e := range gl.initList {
			v, err := ck.foldConst(e)
			if err != nil {
				return nil, err
			}
			put(gl.initAt[i]*es, v, elem)
		}
	case gl.init != nil:
		v, err := ck.foldConst(gl.init)
		if err != nil {
			return nil, err
		}
		put(0, v, gl.ty)
	}
	return b, nil
}

// emitClankSupport emits the compiler-inserted checkpoint/restart routines
// (paper section 4.1-4.2): save all registers and the PSR to the inactive
// checkpoint slot, flip the checkpoint pointer, and the inverse restore
// path. The intermittent machine accounts their cost natively; the code is
// emitted so image sizes reflect the real Clank binary layout. Returns the
// number of 16-bit ops emitted.
func emitClankSupport(a *asm) int {
	start := len(a.items)
	slot := uint32(armsim.MemSize - ReservedBytes)
	lbl := a.newLabel()
	a.place(lbl)
	// Checkpoint: push low regs, stash high regs, write out 17 words.
	a.op(encPush(0xFF, true))
	a.ldrLit(0, litVal{value: slot})
	for i := 1; i < 8; i++ {
		a.op(encStrImm(i, 0, i*4))
	}
	a.op(encHiMov(1, 8))
	a.op(encStrImm(1, 0, 32))
	a.op(encHiMov(1, 9))
	a.op(encStrImm(1, 0, 36))
	a.op(encHiMov(1, 10))
	a.op(encStrImm(1, 0, 40))
	a.op(encHiMov(1, 11))
	a.op(encStrImm(1, 0, 44))
	a.op(encHiMov(1, 12))
	a.op(encStrImm(1, 0, 48))
	a.op(encHiMov(1, spReg))
	a.op(encStrImm(1, 0, 52))
	a.op(encHiMov(1, 14))
	a.op(encStrImm(1, 0, 56))
	// Flip the checkpoint pointer (double-buffer commit).
	a.ldrLit(1, litVal{value: slot + 128})
	a.op(encLdrImm(2, 1, 0))
	a.op(encMovImm(0, 1))
	a.op(encDP(dpEOR, 2, 0))
	a.op(encStrImm(2, 1, 0))
	a.op(encPop(0xFF, true))
	// Restore: read the committed slot back into the register file.
	rlbl := a.newLabel()
	a.place(rlbl)
	a.ldrLit(0, litVal{value: slot})
	for i := 1; i < 8; i++ {
		a.op(encLdrImm(i, 0, i*4))
	}
	a.op(encLdrImm(1, 0, 52))
	a.op(encHiMov(spReg, 1))
	a.op(encLdrImm(1, 0, 56))
	a.op(encHiMov(14, 1))
	a.op(encLdrImm(1, 0, 60))
	a.op(encBX(1))
	a.flushPool(false)
	// Count emitted halfwords.
	n := 0
	for _, it := range a.items[start:] {
		switch it.kind {
		case itOp, itLdrLit:
			n++
		case itOp32, itPoolEntry:
			n += 2
		case itB:
			n++
		}
	}
	return n
}
