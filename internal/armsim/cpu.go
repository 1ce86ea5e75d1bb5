package armsim

import (
	"errors"
	"fmt"
)

// Register indices.
const (
	SP = 13
	LR = 14
	PC = 15
)

// Cycle costs for the Cortex-M0+ timing model (2-stage pipeline). The
// multiplier is the 32-cycle iterative unit the paper's implementation uses.
const (
	cycALU         = 1
	cycMul         = 32
	cycLoad        = 2
	cycStore       = 2
	cycBranchTaken = 2
	cycBranchNot   = 1
	cycBL          = 3
	cycBX          = 2
	cycPopPC       = 3 // added on top of 1+N when PC is in the list
	cycSys         = 3 // MRS/MSR/barriers
)

// Errors the CPU surfaces to its driver.
var (
	// ErrHalted is returned by Step once the CPU has executed BKPT.
	ErrHalted = errors.New("armsim: halted")
	// ErrUndefined is returned for instructions outside ARMv6-M.
	ErrUndefined = errors.New("armsim: undefined instruction")
)

// CPU models the ARMv6-M integer core: 16 registers plus the APSR condition
// flags. The CPU talks to memory exclusively through its Bus, which may veto
// data accesses; a vetoed instruction has no architectural effect and will
// re-execute on the next Step.
type CPU struct {
	R     [16]uint32
	N     bool
	Z     bool
	C     bool
	V     bool
	Prim  bool // PRIMASK, modeled but unused by generated code
	Bus   Bus
	Halt  bool
	Cycle uint64 // total executed cycles
	Insns uint64 // total retired instructions (monotonic; not checkpointed)

	// pd is the predecoded instruction cache (see predecode.go); nil means
	// every Step takes the legacy fetch+decode path.
	pd *DecodeCache
	// mem, when non-nil, is the Bus's concrete Memory: the predecoded
	// executor then bypasses interface dispatch on data accesses. Set only
	// when the bus IS that memory (plain continuous machines); monitored
	// buses (trace recorder, the intermittent Clank adapter) leave it nil
	// so every access stays visible to them.
	mem *Memory

	// TEXT window for predecode-time literal-load classification
	// (SetTextWindow): word-address bounds [textLoW, textHiW) and the
	// bus's TextLitLoader implementation, nil when the bus has none.
	textLoW, textHiW uint32
	textLit          TextLitLoader

	// yield is set by Yield during a bus access and read by execRun after
	// each access micro-op (see Yield).
	yield bool
}

// Yield asks the fused engine to return to its caller at the instruction
// boundary after the instruction whose memory access is in progress. A
// monitored bus calls it from inside Load/Store/LoadTextLit when its driver
// must act at that boundary — an output that needs a trailing checkpoint,
// an injected power cut — so fused runs can otherwise span monitored
// accesses without hiding the boundary. Outside a fused run (Step, the
// legacy and unfused paths) every call already returns after one
// instruction and the request is moot.
func (c *CPU) Yield() { c.yield = true }

// NewCPU returns a CPU attached to bus with all state zeroed.
func NewCPU(bus Bus) *CPU {
	return &CPU{Bus: bus}
}

// ResetInto clears registers and flags and starts execution at entry with the
// given initial stack pointer, mirroring a hardware reset that reads the
// vector table.
func (c *CPU) ResetInto(sp, entry uint32) {
	for i := range c.R {
		c.R[i] = 0
	}
	c.N, c.Z, c.C, c.V = false, false, false, false
	c.R[SP] = sp
	c.R[PC] = entry &^ 1
	c.Halt = false
}

// Regs returns a copy of the register file (used by checkpointing).
func (c *CPU) Regs() [16]uint32 { return c.R }

// PSR packs the condition flags into an xPSR-style word.
func (c *CPU) PSR() uint32 {
	var p uint32
	if c.N {
		p |= 1 << 31
	}
	if c.Z {
		p |= 1 << 30
	}
	if c.C {
		p |= 1 << 29
	}
	if c.V {
		p |= 1 << 28
	}
	return p
}

// SetPSR unpacks condition flags from an xPSR-style word.
func (c *CPU) SetPSR(p uint32) {
	c.N = p&(1<<31) != 0
	c.Z = p&(1<<30) != 0
	c.C = p&(1<<29) != 0
	c.V = p&(1<<28) != 0
}

// pcRead is the value the program observes when reading PC: address of the
// current instruction plus 4 (Thumb pipeline semantics).
func (c *CPU) pcRead() uint32 { return c.R[PC] + 4 }

func (c *CPU) setNZ(v uint32) {
	c.N = v&0x80000000 != 0
	c.Z = v == 0
}

// addWithCarry implements the ARM AddWithCarry pseudocode via 64-bit
// widening, returning the result and updating no state. It is the
// reference model for addFlags (TestAddFlagsMatchesAddWithCarry proves
// them identical); the executors call addFlags, whose bit-twiddled flag
// formulas fit the inliner budget where this function's widened
// arithmetic does not.
func addWithCarry(x, y uint32, carryIn bool) (result uint32, carryOut, overflow bool) {
	ci := uint64(0)
	if carryIn {
		ci = 1
	}
	usum := uint64(x) + uint64(y) + ci
	ssum := int64(int32(x)) + int64(int32(y)) + int64(ci)
	result = uint32(usum)
	carryOut = usum != uint64(result)
	overflow = ssum != int64(int32(result))
	return result, carryOut, overflow
}

// addFlags is r = x + y + carryIn with NZCV updated, entirely in 32 bits:
// carry-out is the standard full-adder majority form at bit 31, and
// overflow is "operands agree in sign, result disagrees".
func (c *CPU) addFlags(x, y uint32, carryIn bool) uint32 {
	var ci uint32
	if carryIn {
		ci = 1
	}
	r := x + y + ci
	c.N = r&0x80000000 != 0
	c.Z = r == 0
	c.C = (x&y|(x|y)&^r)&0x80000000 != 0
	c.V = ((x^r)&(y^r))&0x80000000 != 0
	return r
}

// Step executes one instruction, advancing Cycle by its cost. It returns
// ErrHalted after BKPT, or any Bus error (a veto or bus fault), in which
// case the instruction had no effect and PC is unchanged.
//
// With a predecode cache attached (EnablePredecode) the hot path is: index
// the cache by halfword address, decode on first execution only, dispatch
// through execDecoded's jump table. The legacy fetch+decode path remains
// both the fallback and the reference model for differential testing.
func (c *CPU) Step() error {
	if c.Halt {
		return ErrHalted
	}
	pc := c.R[PC]
	if c.pd != nil && pc < MemSize {
		// The mask is a no-op given pc < MemSize; it lets the compiler
		// drop the slice bounds check on the hottest load in the simulator.
		d := &c.pd.tab[(pc>>1)&(MemSize/2-1)]
		if d.Kind == kindNone {
			// A frozen (shared) cache never fills: the rare slot its build
			// pass refused stays on the legacy interpreter forever.
			if c.pd.frozen {
				return c.stepLegacy(pc)
			}
			cached, err := c.fillDecoded(d, pc)
			if err != nil {
				return err
			}
			if !cached {
				return c.stepLegacy(pc)
			}
		}
		cycles, next, err := c.execDecoded(d, pc)
		if err != nil {
			return err
		}
		c.R[PC] = next
		c.Cycle += uint64(cycles)
		c.Insns++
		return nil
	}
	return c.stepLegacy(pc)
}

// RunTo executes instructions until Halt (ErrHalted), another error, or
// Cycle reaching maxCycles (nil). It is Step's body merged into the run
// loop — one call per instruction instead of three — and is what
// Machine.Run drives; the semantics per instruction are identical to Step.
func (c *CPU) RunTo(maxCycles uint64) error {
	if c.pd == nil {
		for c.Cycle < maxCycles {
			if err := c.Step(); err != nil {
				return err
			}
		}
		return nil
	}
	fuse := c.pd.fuse
	for c.Cycle < maxCycles {
		if c.Halt {
			return ErrHalted
		}
		pc := c.R[PC]
		if pc >= MemSize {
			if err := c.stepLegacy(pc); err != nil {
				return err
			}
			continue
		}
		if fuse {
			rid := c.pd.runTab[pc>>1]
			if rid == 0 && !c.pd.frozen {
				rid = c.buildRun(pc)
			}
			// Enter the run only when the cycle allowance covers its worst
			// case, so the stop at maxCycles lands on a block boundary
			// (exact flags); the last few instructions single-step below.
			if rid > 0 && maxCycles-c.Cycle >= uint64(c.pd.runs[rid-1].maxCyc) {
				if err := c.execRun(rid, maxCycles-c.Cycle); err != nil {
					return err
				}
				continue
			}
		}
		d := &c.pd.tab[(pc>>1)&(MemSize/2-1)]
		if d.Kind == kindNone {
			if c.pd.frozen {
				if err := c.stepLegacy(pc); err != nil {
					return err
				}
				continue
			}
			cached, err := c.fillDecoded(d, pc)
			if err != nil {
				return err
			}
			if !cached {
				if err := c.stepLegacy(pc); err != nil {
					return err
				}
				continue
			}
		}
		cycles, next, err := c.execDecoded(d, pc)
		if err != nil {
			return err
		}
		c.R[PC] = next
		c.Cycle += uint64(cycles)
		c.Insns++
	}
	return nil
}

// StepFused advances execution by at most budget cycles' worth of
// instructions: whole fused runs while the budget covers each run's
// worst-case cost, or — when the next run no longer fits, no run covers PC,
// fusion is disabled, or PC is outside memory — exactly one Step. Budget
// stops therefore land on block boundaries, the only points where lazily
// skipped flags are guaranteed materialized; near a boundary event the tail
// instructions single-step, so the intermittent run loop's power, watchdog,
// and wall-clock decisions fire at byte-identical points to insn-at-a-time
// stepping. At least one instruction executes regardless of budget, exactly
// like Step.
func (c *CPU) StepFused(budget uint64) error {
	if c.Halt {
		return ErrHalted
	}
	pc := c.R[PC]
	if c.pd == nil || !c.pd.fuse || pc >= MemSize {
		return c.Step()
	}
	rid := c.pd.runTab[pc>>1]
	if rid == 0 && !c.pd.frozen {
		rid = c.buildRun(pc)
	}
	if rid > 0 && budget >= uint64(c.pd.runs[rid-1].maxCyc) {
		return c.execRun(rid, budget)
	}
	return c.Step()
}

// stepLegacy is the pre-predecode Step body: fetch one halfword through
// the Bus and walk the nested decode switches.
func (c *CPU) stepLegacy(pc uint32) error {
	op, err := c.Bus.Fetch16(pc)
	if err != nil {
		return err
	}
	cycles, next, err := c.exec(op, pc)
	if err != nil {
		return err
	}
	c.R[PC] = next
	c.Cycle += uint64(cycles)
	c.Insns++
	return nil
}

// exec decodes and executes one instruction at pc, returning its cycle cost
// and the next PC. On error, no architectural state has changed.
func (c *CPU) exec(op uint16, pc uint32) (cycles int, next uint32, err error) {
	next = pc + 2

	switch {
	// 00xxxxx: shift (immediate), add, subtract, move, compare.
	case op>>14 == 0b00:
		return c.execShiftAddSubMovCmp(op, next)

	// 010000: data processing (register).
	case op>>10 == 0b010000:
		return c.execDataProc(op, next)

	// 010001: special data instructions and branch/exchange.
	case op>>10 == 0b010001:
		return c.execSpecial(op, pc, next)

	// 01001x: LDR (literal).
	case op>>11 == 0b01001:
		rt := int(op>>8) & 7
		imm := uint32(op&0xFF) * 4
		addr := (c.pcRead() &^ 3) + imm
		v, err := c.Bus.Load(addr, 4, pc)
		if err != nil {
			return 0, 0, err
		}
		c.R[rt] = v
		return cycLoad, next, nil

	// 0101xx / 011xxx / 100xxx: load/store single.
	case op>>12 == 0b0101 || op>>13 == 0b011 || op>>13 == 0b100:
		return c.execLoadStore(op, pc, next)

	// 10100x: ADR.
	case op>>11 == 0b10100:
		rd := int(op>>8) & 7
		c.R[rd] = (c.pcRead() &^ 3) + uint32(op&0xFF)*4
		return cycALU, next, nil

	// 10101x: ADD (SP plus immediate).
	case op>>11 == 0b10101:
		rd := int(op>>8) & 7
		c.R[rd] = c.R[SP] + uint32(op&0xFF)*4
		return cycALU, next, nil

	// 1011xx: miscellaneous.
	case op>>12 == 0b1011:
		return c.execMisc(op, pc, next)

	// 11000x: STM; 11001x: LDM.
	case op>>12 == 0b1100:
		return c.execLdmStm(op, pc, next)

	// 1101xx: conditional branch, UDF, SVC.
	case op>>12 == 0b1101:
		cond := int(op>>8) & 0xF
		switch cond {
		case 0xE:
			return 0, 0, fmt.Errorf("%w: UDF %#04x at %#x", ErrUndefined, op, pc)
		case 0xF: // SVC: treated as a no-op system call.
			return cycSys, next, nil
		}
		off := int32(int8(op&0xFF)) * 2
		if c.condPasses(cond) {
			return cycBranchTaken, uint32(int32(c.pcRead()) + off), nil
		}
		return cycBranchNot, next, nil

	// 11100x: unconditional branch.
	case op>>11 == 0b11100:
		off := int32(op&0x7FF) << 21 >> 20 // sign-extend imm11, times 2
		return cycBranchTaken, uint32(int32(c.pcRead()) + off), nil

	// 32-bit instructions: BL and system instructions.
	case op>>11 == 0b11110 || op>>11 == 0b11101 || op>>11 == 0b11111:
		return c.exec32(op, pc)
	}
	return 0, 0, fmt.Errorf("%w: %#04x at %#x", ErrUndefined, op, pc)
}

func (c *CPU) execShiftAddSubMovCmp(op uint16, next uint32) (int, uint32, error) {
	switch {
	case op>>11 == 0b00000: // LSL (immediate) — imm 0 is MOVS Rd, Rm.
		imm := uint32(op>>6) & 31
		rm, rd := int(op>>3)&7, int(op)&7
		v := c.R[rm]
		if imm != 0 {
			c.C = v&(1<<(32-imm)) != 0
			v <<= imm
		}
		c.R[rd] = v
		c.setNZ(v)
		return cycALU, next, nil
	case op>>11 == 0b00001: // LSR (immediate) — imm 0 means 32.
		imm := uint32(op>>6) & 31
		rm, rd := int(op>>3)&7, int(op)&7
		v := c.R[rm]
		if imm == 0 {
			c.C = v&0x80000000 != 0
			v = 0
		} else {
			c.C = v&(1<<(imm-1)) != 0
			v >>= imm
		}
		c.R[rd] = v
		c.setNZ(v)
		return cycALU, next, nil
	case op>>11 == 0b00010: // ASR (immediate).
		imm := uint32(op>>6) & 31
		rm, rd := int(op>>3)&7, int(op)&7
		v := int32(c.R[rm])
		if imm == 0 {
			c.C = v < 0
			v >>= 31
		} else {
			c.C = v&(1<<(imm-1)) != 0
			v >>= imm
		}
		c.R[rd] = uint32(v)
		c.setNZ(uint32(v))
		return cycALU, next, nil
	case op>>9 == 0b0001100: // ADD (register).
		rm, rn, rd := int(op>>6)&7, int(op>>3)&7, int(op)&7
		c.R[rd] = c.addFlags(c.R[rn], c.R[rm], false)
		return cycALU, next, nil
	case op>>9 == 0b0001101: // SUB (register).
		rm, rn, rd := int(op>>6)&7, int(op>>3)&7, int(op)&7
		c.R[rd] = c.addFlags(c.R[rn], ^c.R[rm], true)
		return cycALU, next, nil
	case op>>9 == 0b0001110: // ADD (immediate 3).
		imm, rn, rd := uint32(op>>6)&7, int(op>>3)&7, int(op)&7
		c.R[rd] = c.addFlags(c.R[rn], imm, false)
		return cycALU, next, nil
	case op>>9 == 0b0001111: // SUB (immediate 3).
		imm, rn, rd := uint32(op>>6)&7, int(op>>3)&7, int(op)&7
		c.R[rd] = c.addFlags(c.R[rn], ^imm, true)
		return cycALU, next, nil
	case op>>11 == 0b00100: // MOV (immediate).
		rd, imm := int(op>>8)&7, uint32(op&0xFF)
		c.R[rd] = imm
		c.setNZ(imm)
		return cycALU, next, nil
	case op>>11 == 0b00101: // CMP (immediate).
		rn, imm := int(op>>8)&7, uint32(op&0xFF)
		c.addFlags(c.R[rn], ^imm, true)
		return cycALU, next, nil
	case op>>11 == 0b00110: // ADD (immediate 8).
		rd, imm := int(op>>8)&7, uint32(op&0xFF)
		c.R[rd] = c.addFlags(c.R[rd], imm, false)
		return cycALU, next, nil
	case op>>11 == 0b00111: // SUB (immediate 8).
		rd, imm := int(op>>8)&7, uint32(op&0xFF)
		c.R[rd] = c.addFlags(c.R[rd], ^imm, true)
		return cycALU, next, nil
	}
	return 0, 0, fmt.Errorf("%w: %#04x", ErrUndefined, op)
}

func (c *CPU) execDataProc(op uint16, next uint32) (int, uint32, error) {
	rm, rd := int(op>>3)&7, int(op)&7
	cycles := cycALU
	switch (op >> 6) & 0xF {
	case 0b0000: // AND
		c.R[rd] &= c.R[rm]
		c.setNZ(c.R[rd])
	case 0b0001: // EOR
		c.R[rd] ^= c.R[rm]
		c.setNZ(c.R[rd])
	case 0b0010: // LSL (register)
		sh := c.R[rm] & 0xFF
		v := c.R[rd]
		switch {
		case sh == 0:
		case sh < 32:
			c.C = v&(1<<(32-sh)) != 0
			v <<= sh
		case sh == 32:
			c.C = v&1 != 0
			v = 0
		default:
			c.C = false
			v = 0
		}
		c.R[rd] = v
		c.setNZ(v)
	case 0b0011: // LSR (register)
		sh := c.R[rm] & 0xFF
		v := c.R[rd]
		switch {
		case sh == 0:
		case sh < 32:
			c.C = v&(1<<(sh-1)) != 0
			v >>= sh
		case sh == 32:
			c.C = v&0x80000000 != 0
			v = 0
		default:
			c.C = false
			v = 0
		}
		c.R[rd] = v
		c.setNZ(v)
	case 0b0100: // ASR (register)
		sh := c.R[rm] & 0xFF
		v := int32(c.R[rd])
		switch {
		case sh == 0:
		case sh < 32:
			c.C = v&(1<<(sh-1)) != 0
			v >>= sh
		default:
			c.C = v < 0
			v >>= 31
		}
		c.R[rd] = uint32(v)
		c.setNZ(uint32(v))
	case 0b0101: // ADC
		c.R[rd] = c.addFlags(c.R[rd], c.R[rm], c.C)
	case 0b0110: // SBC
		c.R[rd] = c.addFlags(c.R[rd], ^c.R[rm], c.C)
	case 0b0111: // ROR (register)
		sh := c.R[rm] & 0xFF
		v := c.R[rd]
		if sh != 0 {
			r := sh & 31
			if r == 0 {
				c.C = v&0x80000000 != 0
			} else {
				v = v>>r | v<<(32-r)
				c.C = v&0x80000000 != 0
			}
		}
		c.R[rd] = v
		c.setNZ(v)
	case 0b1000: // TST
		c.setNZ(c.R[rd] & c.R[rm])
	case 0b1001: // RSB (immediate 0) / NEG
		c.R[rd] = c.addFlags(^c.R[rm], 0, true)
	case 0b1010: // CMP (register)
		c.addFlags(c.R[rd], ^c.R[rm], true)
	case 0b1011: // CMN
		c.addFlags(c.R[rd], c.R[rm], false)
	case 0b1100: // ORR
		c.R[rd] |= c.R[rm]
		c.setNZ(c.R[rd])
	case 0b1101: // MUL
		c.R[rd] = c.R[rd] * c.R[rm]
		c.setNZ(c.R[rd])
		cycles = cycMul
	case 0b1110: // BIC
		c.R[rd] &^= c.R[rm]
		c.setNZ(c.R[rd])
	case 0b1111: // MVN
		c.R[rd] = ^c.R[rm]
		c.setNZ(c.R[rd])
	}
	return cycles, next, nil
}

func (c *CPU) execSpecial(op uint16, pc, next uint32) (int, uint32, error) {
	readReg := func(i int) uint32 {
		if i == PC {
			return c.pcRead()
		}
		return c.R[i]
	}
	switch (op >> 8) & 3 {
	case 0b00: // ADD (register, high)
		rd := int(op)&7 | int(op>>4)&8
		rm := int(op>>3) & 0xF
		v := readReg(rd) + readReg(rm)
		if rd == PC {
			return cycBX, v &^ 1, nil
		}
		c.R[rd] = v
		return cycALU, next, nil
	case 0b01: // CMP (register, high)
		rn := int(op)&7 | int(op>>4)&8
		rm := int(op>>3) & 0xF
		c.addFlags(readReg(rn), ^readReg(rm), true)
		return cycALU, next, nil
	case 0b10: // MOV (register, high)
		rd := int(op)&7 | int(op>>4)&8
		rm := int(op>>3) & 0xF
		v := readReg(rm)
		if rd == PC {
			return cycBX, v &^ 1, nil
		}
		c.R[rd] = v
		return cycALU, next, nil
	case 0b11: // BX / BLX
		rm := int(op>>3) & 0xF
		target := readReg(rm)
		if op&0x80 != 0 { // BLX
			c.R[LR] = (pc + 2) | 1
		}
		return cycBX, target &^ 1, nil
	}
	return 0, 0, fmt.Errorf("%w: %#04x", ErrUndefined, op)
}

func (c *CPU) execLoadStore(op uint16, pc, next uint32) (int, uint32, error) {
	if op>>12 == 0b0101 { // register offset forms
		rm, rn, rt := int(op>>6)&7, int(op>>3)&7, int(op)&7
		addr := c.R[rn] + c.R[rm]
		switch (op >> 9) & 7 {
		case 0b000: // STR
			return c.store(addr, 4, c.R[rt], pc, next)
		case 0b001: // STRH
			return c.store(addr, 2, c.R[rt], pc, next)
		case 0b010: // STRB
			return c.store(addr, 1, c.R[rt], pc, next)
		case 0b011: // LDRSB
			return c.load(addr, 1, rt, signExt8, pc, next)
		case 0b100: // LDR
			return c.load(addr, 4, rt, nil, pc, next)
		case 0b101: // LDRH
			return c.load(addr, 2, rt, nil, pc, next)
		case 0b110: // LDRB
			return c.load(addr, 1, rt, nil, pc, next)
		case 0b111: // LDRSH
			return c.load(addr, 2, rt, signExt16, pc, next)
		}
	}
	if op>>13 == 0b011 { // word/byte immediate
		imm := uint32(op>>6) & 31
		rn, rt := int(op>>3)&7, int(op)&7
		byteOp := op&(1<<12) != 0
		loadOp := op&(1<<11) != 0
		if byteOp {
			addr := c.R[rn] + imm
			if loadOp {
				return c.load(addr, 1, rt, nil, pc, next)
			}
			return c.store(addr, 1, c.R[rt], pc, next)
		}
		addr := c.R[rn] + imm*4
		if loadOp {
			return c.load(addr, 4, rt, nil, pc, next)
		}
		return c.store(addr, 4, c.R[rt], pc, next)
	}
	if op>>12 == 0b1000 { // halfword immediate
		imm := uint32(op>>6) & 31
		rn, rt := int(op>>3)&7, int(op)&7
		addr := c.R[rn] + imm*2
		if op&(1<<11) != 0 {
			return c.load(addr, 2, rt, nil, pc, next)
		}
		return c.store(addr, 2, c.R[rt], pc, next)
	}
	if op>>12 == 0b1001 { // SP-relative
		rt := int(op>>8) & 7
		addr := c.R[SP] + uint32(op&0xFF)*4
		if op&(1<<11) != 0 {
			return c.load(addr, 4, rt, nil, pc, next)
		}
		return c.store(addr, 4, c.R[rt], pc, next)
	}
	return 0, 0, fmt.Errorf("%w: %#04x", ErrUndefined, op)
}

func signExt8(v uint32) uint32  { return uint32(int32(int8(v))) }
func signExt16(v uint32) uint32 { return uint32(int32(int16(v))) }

func (c *CPU) load(addr uint32, size uint8, rt int, ext func(uint32) uint32, pc, next uint32) (int, uint32, error) {
	v, err := c.Bus.Load(addr, size, pc)
	if err != nil {
		return 0, 0, err
	}
	if ext != nil {
		v = ext(v)
	}
	c.R[rt] = v
	return cycLoad, next, nil
}

func (c *CPU) store(addr uint32, size uint8, v uint32, pc, next uint32) (int, uint32, error) {
	if err := c.Bus.Store(addr, size, v, pc); err != nil {
		return 0, 0, err
	}
	return cycStore, next, nil
}

func (c *CPU) execMisc(op uint16, pc, next uint32) (int, uint32, error) {
	switch {
	case op>>7 == 0b101100000: // ADD SP, imm7
		c.R[SP] += uint32(op&0x7F) * 4
		return cycALU, next, nil
	case op>>7 == 0b101100001: // SUB SP, imm7
		c.R[SP] -= uint32(op&0x7F) * 4
		return cycALU, next, nil
	case op>>6 == 0b1011001000: // SXTH
		c.R[op&7] = signExt16(c.R[(op>>3)&7])
		return cycALU, next, nil
	case op>>6 == 0b1011001001: // SXTB
		c.R[op&7] = signExt8(c.R[(op>>3)&7])
		return cycALU, next, nil
	case op>>6 == 0b1011001010: // UXTH
		c.R[op&7] = c.R[(op>>3)&7] & 0xFFFF
		return cycALU, next, nil
	case op>>6 == 0b1011001011: // UXTB
		c.R[op&7] = c.R[(op>>3)&7] & 0xFF
		return cycALU, next, nil
	case op>>9 == 0b1011010: // PUSH
		return c.execPush(op, pc, next)
	case op>>9 == 0b1011110: // POP
		return c.execPop(op, pc, next)
	case op>>6 == 0b1011101000: // REV
		v := c.R[(op>>3)&7]
		c.R[op&7] = v<<24 | v>>24 | (v&0xFF00)<<8 | (v>>8)&0xFF00
		return cycALU, next, nil
	case op>>6 == 0b1011101001: // REV16
		v := c.R[(op>>3)&7]
		c.R[op&7] = (v&0x00FF00FF)<<8 | (v>>8)&0x00FF00FF
		return cycALU, next, nil
	case op>>6 == 0b1011101011: // REVSH
		v := c.R[(op>>3)&7]
		c.R[op&7] = uint32(int32(int16(v<<8 | (v>>8)&0xFF)))
		return cycALU, next, nil
	case op>>8 == 0b10111110: // BKPT: halt the simulation.
		c.Halt = true
		return cycALU, pc, ErrHalted
	case op == 0b1011111100000000: // NOP
		return cycALU, next, nil
	case op>>8 == 0b10111111: // other hints (YIELD/WFE/WFI/SEV): no-ops
		return cycALU, next, nil
	case op>>5 == 0b10110110011: // CPS
		c.Prim = op&0x10 != 0
		return cycALU, next, nil
	}
	return 0, 0, fmt.Errorf("%w: %#04x at %#x", ErrUndefined, op, pc)
}

func (c *CPU) execPush(op uint16, pc, next uint32) (int, uint32, error) {
	list := int(op & 0xFF)
	lrBit := op&0x100 != 0
	n := popCount(list)
	if lrBit {
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("%w: empty PUSH at %#x", ErrUndefined, pc)
	}
	base := c.R[SP] - uint32(4*n)
	addr := base
	for i := 0; i < 8; i++ {
		if list&(1<<i) != 0 {
			if err := c.Bus.Store(addr, 4, c.R[i], pc); err != nil {
				return 0, 0, err
			}
			addr += 4
		}
	}
	if lrBit {
		if err := c.Bus.Store(addr, 4, c.R[LR], pc); err != nil {
			return 0, 0, err
		}
	}
	c.R[SP] = base
	return 1 + n, next, nil
}

func (c *CPU) execPop(op uint16, pc, next uint32) (int, uint32, error) {
	list := int(op & 0xFF)
	pcBit := op&0x100 != 0
	n := popCount(list)
	if pcBit {
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("%w: empty POP at %#x", ErrUndefined, pc)
	}
	// Perform all loads first so a veto on any of them aborts the whole
	// instruction with no register changes.
	vals := make([]uint32, 0, n)
	addr := c.R[SP]
	for i := 0; i < 8; i++ {
		if list&(1<<i) != 0 {
			v, err := c.Bus.Load(addr, 4, pc)
			if err != nil {
				return 0, 0, err
			}
			vals = append(vals, v)
			addr += 4
		}
	}
	var newPC uint32
	if pcBit {
		v, err := c.Bus.Load(addr, 4, pc)
		if err != nil {
			return 0, 0, err
		}
		newPC = v
		addr += 4
	}
	j := 0
	for i := 0; i < 8; i++ {
		if list&(1<<i) != 0 {
			c.R[i] = vals[j]
			j++
		}
	}
	c.R[SP] = addr
	if pcBit {
		return 1 + n + cycPopPC, newPC &^ 1, nil
	}
	return 1 + n, next, nil
}

func (c *CPU) execLdmStm(op uint16, pc, next uint32) (int, uint32, error) {
	rn := int(op>>8) & 7
	list := int(op & 0xFF)
	n := popCount(list)
	if n == 0 {
		return 0, 0, fmt.Errorf("%w: empty LDM/STM at %#x", ErrUndefined, pc)
	}
	addr := c.R[rn]
	if op&(1<<11) != 0 { // LDM
		vals := make([]uint32, 0, n)
		a := addr
		for i := 0; i < 8; i++ {
			if list&(1<<i) != 0 {
				v, err := c.Bus.Load(a, 4, pc)
				if err != nil {
					return 0, 0, err
				}
				vals = append(vals, v)
				a += 4
			}
		}
		j := 0
		for i := 0; i < 8; i++ {
			if list&(1<<i) != 0 {
				c.R[i] = vals[j]
				j++
			}
		}
		// Writeback unless Rn is in the list (ARMv6-M behavior).
		if list&(1<<rn) == 0 {
			c.R[rn] = a
		}
		return 1 + n, next, nil
	}
	// STM: stores commit in order; a veto mid-way is safe because
	// re-execution rewrites the same values (see DESIGN.md).
	a := addr
	for i := 0; i < 8; i++ {
		if list&(1<<i) != 0 {
			if err := c.Bus.Store(a, 4, c.R[i], pc); err != nil {
				return 0, 0, err
			}
			a += 4
		}
	}
	c.R[rn] = a
	return 1 + n, next, nil
}

func (c *CPU) exec32(op uint16, pc uint32) (int, uint32, error) {
	op2, err := c.Bus.Fetch16(pc + 2)
	if err != nil {
		return 0, 0, err
	}
	// BL: 11110 S imm10 : 11 J1 1 J2 imm11
	if op>>11 == 0b11110 && op2>>14 == 0b11 && op2&(1<<12) != 0 {
		s := uint32(op>>10) & 1
		imm10 := uint32(op) & 0x3FF
		j1 := uint32(op2>>13) & 1
		j2 := uint32(op2>>11) & 1
		imm11 := uint32(op2) & 0x7FF
		i1 := ^(j1 ^ s) & 1
		i2 := ^(j2 ^ s) & 1
		imm := s<<24 | i1<<23 | i2<<22 | imm10<<12 | imm11<<1
		off := int32(imm<<7) >> 7 // sign-extend 25 bits
		c.R[LR] = (pc + 4) | 1
		return cycBL, uint32(int32(pc+4) + off), nil
	}
	// DMB/DSB/ISB and MSR/MRS: decode loosely, act as no-ops.
	if op>>4 == 0b111100111011 || op>>4 == 0b111100111000 || op>>4 == 0b111100111110 {
		return cycSys, pc + 4, nil
	}
	return 0, 0, fmt.Errorf("%w: 32-bit %#04x %#04x at %#x", ErrUndefined, op, op2, pc)
}

func (c *CPU) condPasses(cond int) bool {
	switch cond {
	case 0x0:
		return c.Z
	case 0x1:
		return !c.Z
	case 0x2:
		return c.C
	case 0x3:
		return !c.C
	case 0x4:
		return c.N
	case 0x5:
		return !c.N
	case 0x6:
		return c.V
	case 0x7:
		return !c.V
	case 0x8:
		return c.C && !c.Z
	case 0x9:
		return !c.C || c.Z
	case 0xA:
		return c.N == c.V
	case 0xB:
		return c.N != c.V
	case 0xC:
		return !c.Z && c.N == c.V
	case 0xD:
		return c.Z || c.N != c.V
	}
	return true
}

func popCount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
