package armsim

import (
	"bytes"
	"fmt"
	"testing"
)

// The predecoded dispatch must be architecturally indistinguishable from
// the reference interpreter (reference_test.go): same registers, flags, cycle counts, memory,
// outputs, and errors (including ErrUndefined) for every encoding. These
// tests run both decoders side by side — the same differential methodology
// mapmodel_test.go used for the clank CAM rewrite.

// diffPair is two machines with identical memories: ref executes through
// the reference interpreter, pre through the predecode cache.
type diffPair struct {
	ref *Machine
	pre *Machine
}

func newDiffPair() *diffPair {
	return &diffPair{ref: newRefMachine(), pre: NewMachine()}
}

// seedCPU sets both CPUs to the same pseudo-random-but-valid state: a few
// registers hold in-RAM addresses so loads and stores frequently succeed,
// the rest hold LCG noise, and the flags come from the seed's low bits.
func (p *diffPair) seedCPU(seed uint32, pc uint32) {
	for _, c := range []*CPU{p.ref.CPU, p.pre.CPU} {
		s := seed
		for i := 0; i < 16; i++ {
			s = s*1664525 + 1013904223
			c.R[i] = s
		}
		// Word-aligned in-RAM pointers for the common base/index registers.
		c.R[2] = 0x8000 + (seed%64)*4
		c.R[3] = (seed % 16) * 4
		c.R[5] = 0x9000 + (seed%32)*4
		c.R[SP] = MemSize - 256 - (seed%8)*4
		c.R[LR] = 0x100 | 1
		c.R[PC] = pc
		c.N = seed&1 != 0
		c.Z = seed&2 != 0
		c.C = seed&4 != 0
		c.V = seed&8 != 0
		c.Prim = false
		c.Halt = false
		c.Cycle = 0
	}
}

// step runs one Step on both machines, compares every architectural
// observable, and returns the (identical) error outcome. Memory contents
// may drift from case to case, but they drift identically on both sides,
// so the differential check stays exact.
func (p *diffPair) step(t *testing.T, label string) error {
	t.Helper()
	errRef := p.ref.CPU.stepRef()
	errPre := p.pre.CPU.Step()
	if (errRef == nil) != (errPre == nil) || (errRef != nil && errRef.Error() != errPre.Error()) {
		t.Fatalf("%s: error mismatch:\n  reference: %v\n  predecode: %v", label, errRef, errPre)
	}
	r, q := p.ref.CPU, p.pre.CPU
	if r.R != q.R {
		t.Fatalf("%s: register mismatch:\n  reference: %v\n  predecode: %v", label, r.R, q.R)
	}
	if r.N != q.N || r.Z != q.Z || r.C != q.C || r.V != q.V || r.Prim != q.Prim || r.Halt != q.Halt {
		t.Fatalf("%s: flag mismatch: reference N%v Z%v C%v V%v P%v H%v, predecode N%v Z%v C%v V%v P%v H%v",
			label, r.N, r.Z, r.C, r.V, r.Prim, r.Halt, q.N, q.Z, q.C, q.V, q.Prim, q.Halt)
	}
	if r.Cycle != q.Cycle {
		t.Fatalf("%s: cycle mismatch: reference %d, predecode %d", label, r.Cycle, q.Cycle)
	}
	if !bytes.Equal(p.ref.Mem.Bytes(), p.pre.Mem.Bytes()) {
		t.Fatalf("%s: memory contents diverged", label)
	}
	if len(p.ref.Mem.Outputs) != len(p.pre.Mem.Outputs) {
		t.Fatalf("%s: output count mismatch: reference %d, predecode %d",
			label, len(p.ref.Mem.Outputs), len(p.pre.Mem.Outputs))
	}
	for i := range p.ref.Mem.Outputs {
		if p.ref.Mem.Outputs[i] != p.pre.Mem.Outputs[i] {
			t.Fatalf("%s: output %d mismatch", label, i)
		}
	}
	return errRef
}

// writeOp places the instruction pair at the entry point on both machines
// (through WriteWord, so the predecode cache invalidates the line).
func (p *diffPair) writeOp(op, op2 uint16) {
	w := uint32(op) | uint32(op2)<<16
	p.ref.Mem.WriteWord(8, w)
	p.pre.Mem.WriteWord(8, w)
}

// TestDifferentialAllEncodings sweeps every 16-bit encoding (with two
// second-halfword variants for the 32-bit prefixes) under multiple register
// seeds and asserts the predecoded dispatch matches the reference
// interpreter exactly — state, cycles, memory, and error values.
func TestDifferentialAllEncodings(t *testing.T) {
	p := newDiffPair()
	seeds := []uint32{0x1234, 0xBEEF5EED, 0x0F0F7777}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for opInt := 0; opInt <= 0xFFFF; opInt++ {
		op := uint16(opInt)
		// op2 variants matter only for 32-bit prefix halfwords: one decodes
		// as a BL second half, one does not.
		op2s := []uint16{opBKPT}
		if op>>11 == 0b11110 || op>>11 == 0b11101 || op>>11 == 0b11111 {
			op2s = []uint16{0xF855, 0x0123}
		}
		for _, op2 := range op2s {
			p.writeOp(op, op2)
			for _, seed := range seeds {
				p.seedCPU(seed, 8)
				p.step(t, fmt.Sprintf("op %#04x op2 %#04x seed %#x", op, op2, seed))
			}
		}
	}
}

// TestDifferentialRandomStreams runs randomized instruction streams in
// lockstep on both decoders until the first error (undefined encoding, bus
// fault, or BKPT halt) or a step bound, comparing the full state after
// every step. Unlike the single-op sweep this exercises cache hits, branch
// chains, and multi-instruction interactions on warm cache lines.
func TestDifferentialRandomStreams(t *testing.T) {
	p := newDiffPair()
	streams := 150
	if testing.Short() {
		streams = 25
	}
	s := uint32(0xC0FFEE)
	rnd := func() uint32 {
		s = s*1664525 + 1013904223
		return s
	}
	const streamWords = 48
	for n := 0; n < streams; n++ {
		// Random halfwords at the entry point; the stream usually ends in
		// an undefined instruction, a bus fault, or a BKPT. Writing through
		// WriteWord invalidates the previous stream's cached decodes.
		for i := 0; i < streamWords; i++ {
			w := rnd()
			p.ref.Mem.WriteWord(8+uint32(i)*4, w)
			p.pre.Mem.WriteWord(8+uint32(i)*4, w)
		}
		p.seedCPU(rnd(), 8)
		for step := 0; step < 300; step++ {
			label := fmt.Sprintf("stream %d step %d (pc %#x)", n, step, p.ref.CPU.R[PC])
			if err := p.step(t, label); err != nil {
				break
			}
		}
	}
}

// TestPredecodeInvalidationOnStore executes an instruction (caching its
// decode), overwrites it through the data path, and re-executes: the store
// must invalidate the cached line so the new instruction runs.
func TestPredecodeInvalidationOnStore(t *testing.T) {
	// Layout (entry = 8):
	//   8: B first            (skip the patch target)
	//  10: target: MOVS r2, #7
	//  12: BX LR
	//  14: first: BL target   (32-bit; caches target's decode) -> r2 = 7
	//  18: MOV r4, r2         (save first result)
	//  20: MOVS r1, #0x22     (build halfword 0x2263 = MOVS r2, #0x63)
	//  22: LSLS r1, r1, #8
	//  24: ADDS r1, #0x63
	//  26: MOVS r3, #10       (address of target)
	//  28: STRH r1, [r3]      (patch: data store over text)
	//  30: BL target          -> r2 must now be 0x63
	//  34: BKPT
	bl1a, bl2a := encodeBL(10 - (14 + 4))
	bl1b, bl2b := encodeBL(10 - (30 + 4))
	ops := []uint16{
		0xE001,                                 //  8: B .+6 -> 14
		movImm8(2, 7),                          // 10: target
		uint16(0b010001<<10 | 0b11<<8 | LR<<3), // 12: BX LR
		bl1a, bl2a,                             // 14: BL target
		0x4614,                                // 18: MOV r4, r2 (high-reg MOV)
		movImm8(1, 0x22),                      // 20
		uint16(0b00000<<11 | 8<<6 | 1<<3 | 1), // 22: LSLS r1, r1, #8
		addImm8(1, 0x63),                      // 24
		movImm8(3, 10),                        // 26
		uint16(0b10000<<11 | 0<<6 | 3<<3 | 1), // 28: STRH r1, [r3]
		bl1b, bl2b,                            // 30: BL target
		opBKPT, // 34
	}
	m := runOps(t, ops...)
	if m.CPU.R[4] != 7 {
		t.Errorf("first call: r4 = %#x, want 7 (pre-patch instruction)", m.CPU.R[4])
	}
	if m.CPU.R[2] != 0x63 {
		t.Errorf("second call: r2 = %#x, want 0x63 (patched instruction; stale decode cache?)", m.CPU.R[2])
	}
}

// TestPredecodeInvalidationSecondHalfword patches the trailing halfword of
// an already-cached 32-bit BL: the invalidation window must reach one
// halfword back and re-decode the whole instruction, retargeting the call.
func TestPredecodeInvalidationSecondHalfword(t *testing.T) {
	// Layout (entry = 8, every slot one halfword):
	//   8: B call(18)
	//  10: a: MOVS r2, #1
	//  12: BX LR
	//  14: b: MOVS r2, #2
	//  16: BX LR
	//  18: call: BL a          <- halfword at 20 gets patched mid-run
	//  22: CMP r2, #2
	//  24: BEQ done(44)
	//  26: MOV r4, r2          (record first-pass result)
	//  28: MOVS r1, #hi        build the replacement second halfword
	//  30: LSLS r1, r1, #8
	//  32: ADDS r1, #lo
	//  34: MOVS r3, #20        address of the BL's second halfword
	//  36: STRH r1, [r3]       patch (invalidation window must reach 18)
	//  38: B call(18)
	//  44: done: BKPT
	// Pass 1 caches the BL pair at 18/20 and target a; pass 2 re-executes
	// the patched BL, which must now call b. Targets a and b share the BL
	// first halfword (offsets -12 and -8 have identical high parts), so
	// patching only the second halfword genuinely retargets the call.
	bl1, bl2 := encodeBL(10 - (18 + 4))  // BL a from the call site at 18
	_, bl2new := encodeBL(14 - (18 + 4)) // second halfword targeting b
	bxlr := uint16(0b010001<<10 | 0b11<<8 | LR<<3)
	branch := func(from, to int) uint16 {
		return 0xE000 | uint16(((to-(from+4))/2)&0x7FF)
	}
	beq := func(from, to int) uint16 {
		return 0xD000 | uint16(((to-(from+4))/2)&0xFF)
	}
	prog := []uint16{
		branch(8, 18), //  8
		movImm8(2, 1), // 10: a
		bxlr,          // 12
		movImm8(2, 2), // 14: b
		bxlr,          // 16
		bl1, bl2,      // 18: call: BL a
		uint16(0b00101<<11 | 2<<8 | 2),        // 22: CMP r2, #2
		beq(24, 44),                           // 24: BEQ done
		0x4614,                                // 26: MOV r4, r2
		movImm8(1, int(bl2new>>8)),            // 28
		uint16(0b00000<<11 | 8<<6 | 1<<3 | 1), // 30: LSLS r1, r1, #8
		addImm8(1, int(bl2new&0xFF)),          // 32
		movImm8(3, 20),                        // 34
		uint16(0b10000<<11 | 0<<6 | 3<<3 | 1), // 36: STRH r1, [r3]
		branch(38, 18),                        // 38
		opBKPT,                                // 40: (unreached)
		opBKPT,                                // 42: (unreached)
		opBKPT,                                // 44: done
	}
	m := runOps(t, prog...)
	if m.CPU.R[4] != 1 {
		t.Errorf("first pass: r4 = %#x, want 1 (BL targeted a)", m.CPU.R[4])
	}
	if m.CPU.R[2] != 2 {
		t.Errorf("after patch: r2 = %#x, want 2 (BL must retarget to b; stale 32-bit decode?)", m.CPU.R[2])
	}
}
