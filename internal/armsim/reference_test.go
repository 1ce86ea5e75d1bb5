package armsim

import "fmt"

// The reference interpreter: the original fetch-and-switch ARMv6-M decoder,
// kept test-only as the ground truth every production engine is checked
// against. stepRef fetches one halfword through the Bus and walks the nested
// decode switches; it never consults the predecode cache or the fused runs,
// so the all-encodings sweeps, the random streams, FuzzFusedBlocks and the
// whole-kernel differential compare predecode and fusion against an
// independent decoder. Every data access goes through the Bus interface,
// after refLoad/refStore's alignment check.

// stepRef executes one instruction through the reference decoder with Step's
// contract: ErrHalted after BKPT, and a Bus error leaves every architectural
// register, flag and counter unchanged.
func (c *CPU) stepRef() error {
	if c.Halt {
		return ErrHalted
	}
	pc := c.R[PC]
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

// newRefMachine returns a machine for the reference interpreter: memory and
// a CPU with no decode cache, driven through stepRef and runRef.
func newRefMachine() *Machine {
	mem := NewMemory()
	return &Machine{CPU: NewCPU(mem), Mem: mem}
}

// runRef is RunTo on the reference decoder.
func (c *CPU) runRef(maxCycles uint64) error {
	for c.Cycle < maxCycles {
		if err := c.stepRef(); err != nil {
			return err
		}
	}
	return nil
}

// pcRead is the value the program observes when reading PC: address of the
// current instruction plus 4 (Thumb pipeline semantics).
func (c *CPU) pcRead() uint32 { return c.R[PC] + 4 }

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
		v, err := c.refLoad(addr, 4, pc)
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

// refLoad and refStore are the reference's data accesses: ARMv6-M faults a
// halfword or word access at an address that is not a multiple of its
// size before it reaches the bus.
func (c *CPU) refLoad(addr uint32, size uint8, pc uint32) (uint32, error) {
	if addr%uint32(size) != 0 {
		return 0, fmt.Errorf("%w: load%d at %#x (pc %#x)", ErrUnaligned, size*8, addr, pc)
	}
	return c.Bus.Load(addr, size, pc)
}

func (c *CPU) refStore(addr uint32, size uint8, v uint32, pc uint32) error {
	if addr%uint32(size) != 0 {
		return fmt.Errorf("%w: store%d at %#x (pc %#x)", ErrUnaligned, size*8, addr, pc)
	}
	return c.Bus.Store(addr, size, v, pc)
}

func (c *CPU) load(addr uint32, size uint8, rt int, ext func(uint32) uint32, pc, next uint32) (int, uint32, error) {
	v, err := c.refLoad(addr, size, pc)
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
	if err := c.refStore(addr, size, v, pc); err != nil {
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
			if err := c.refStore(addr, 4, c.R[i], pc); err != nil {
				return 0, 0, err
			}
			addr += 4
		}
	}
	if lrBit {
		if err := c.refStore(addr, 4, c.R[LR], pc); err != nil {
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
			v, err := c.refLoad(addr, 4, pc)
			if err != nil {
				return 0, 0, err
			}
			vals = append(vals, v)
			addr += 4
		}
	}
	var newPC uint32
	if pcBit {
		v, err := c.refLoad(addr, 4, pc)
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
				v, err := c.refLoad(a, 4, pc)
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
			if err := c.refStore(a, 4, c.R[i], pc); err != nil {
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
