package armsim

// The executor: basic-block superinstruction fusion. The predecode layer
// (predecode.go) removed fetch+decode from the hot path; this file removes
// per-instruction dispatch and flag materialization on every
// data-processing instruction whether or not anything ever reads the
// flags. At first execution the CPU discovers the basic block starting at
// pc (straight-line code up to a branch, a return, BKPT or an undefined
// encoding), translates it once into a run of compact micro-ops (fusedOp),
// and thereafter executes the whole run inside one specialized handler
// loop (execRun) without re-entering any dispatch code.
//
// execRun is the only production statement of the ISA. Step translates the
// one instruction at PC into a CPU-local scratch micro-op (translate, with
// every flag live) and runs it with a budget of one cycle, so single-step,
// the miss path, budget tails and the DisableFusion tier ("runs of length
// one") execute through the same handlers as fused blocks. The reference
// interpreter in the package tests is the differential model for both.
//
// Three mechanisms make runs faster than stepping one instruction at a
// time:
//
//   - Lazy flag materialization. A backward liveness pass over the block
//     decides, per instruction, whether any flag it sets is ever consumed
//     (by a conditional branch, ADC/SBC, or an instruction that only
//     partially overwrites the flags) before being overwritten. Dead
//     setters run as unflagged micro-ops — a plain add/shift/logical with
//     no NZCV computation, using the same branch-free addFlags formulas
//     when flags are live. A CMP whose flags die becomes a pure cycle
//     charge.
//   - True superinstructions. Adjacent idiom pairs collapse into single
//     micro-ops: compare+branch (fopCmpImmB/fopCmpRegB), the loop
//     decrement subs+branch (fopSubsImmB), and shift+accumulate
//     (fopShlAdd/fopShlAddF, the ccc indexed-addressing idiom).
//   - No per-instruction loop bookkeeping: PC writeback, the Cycle/Insns
//     counters, and the budget check happen per micro-op inside one tight
//     loop over a contiguous []fusedOp slice. Every instruction has its own
//     micro-op, PUSH/POP/LDM/STM, BKPT and undefined encodings included,
//     and register operands are masked at use (op.rd&15) so the register
//     file is indexed without bounds checks.
//
// Correctness contract (every rule holds for a run of one micro-op too,
// which is what makes Step a special case rather than a second executor):
//
//   - Monitored buses see every load/store exactly once, in order, with
//     c.Cycle flushed to the precise pre-instruction value first (the
//     trace recorder stamps accesses with it). Runs span accesses on
//     every bus; what keeps a monitoring caller's decisions at the same
//     instruction boundaries as stepping one instruction at a time is the
//     next two rules.
//   - An error at micro-op k — a bus veto (the intermittent machine's
//     errCheckpoint), a bus fault, BKPT (ErrHalted, with Halt set) or an
//     undefined encoding (ErrUndefined) — commits ops 0..k-1 (registers,
//     flags, cycles, Insns), leaves PC at op k's address, charges op k
//     nothing, and returns the error unchanged: indistinguishable from k
//     successful Steps followed by one failing Step.
//   - Yield: a bus that must act at the boundary after the current
//     instruction (an injected power cut, an output needing its trailing
//     checkpoint) calls CPU.Yield during the access, and the run stops
//     right after that instruction with everything up to it committed:
//     indistinguishable from Steps up to and including it.
//   - Multi-register transfers (PUSH/POP/LDM/STM) go through
//     storeMulti/loadMulti, so both rules above hold per instruction, not
//     per access: every access of the transfer sees the Cycle flushed
//     before its first; a veto or fault at register k leaves PC on the
//     instruction with no register loaded and no base or SP writeback
//     (stores 0..k-1 stay in memory, and re-execution rewrites them); a
//     yield at any access completes the instruction and stops the run
//     after it. POP with PC in the list ends its run and chains to the
//     popped address.
//   - Budgeted execution: a run executes only when the remaining budget
//     covers its worst-case cycle cost (fusedRun.maxCyc) — StepFused falls
//     back to Step otherwise, and chaining re-checks the gate per block —
//     so every budget stop lands on a block boundary, where the liveness
//     pass materialized all four flags. Lazily skipped flags are exactly
//     why mid-run budget stops are forbidden: a stop at a boundary whose
//     flag setter was skipped would expose stale NZCV (to the intermittent
//     layer's checkpoints, among others). The remaining early-stop points
//     — faults and vetoes, BKPT and undefined encodings, yields, and
//     self-invalidating stores — sit adjacent to memory accesses, which the
//     liveness pass treats as full flag barriers, or end their run.
//   - Self-modifying text: DecodeCache.Invalidate drops every run whose
//     span intersects the written window (see Invalidate), and a store
//     executed from inside a run re-validates its own run before
//     continuing — if the store invalidated the remainder, the run stops
//     at the next instruction boundary and execution resumes through a
//     freshly decoded path.
//   - Re-entry at an arbitrary pc (a checkpoint resumed mid-block, a
//     branch into the middle of a block) builds a fresh suffix run headed
//     at that pc; blocks need no canonical head.

import "math/bits"

// Fusion limits. maxFuseInsns bounds translation and scan buffers;
// maxRunSlots bounds a run's halfword span (each instruction is at most 2
// slots) and with it Invalidate's backward window. opsFlushLimit caps the
// micro-op arena so pathological self-modifying code cannot grow it without
// bound: past the limit the next buildRun flushes every run and starts
// over (the arenas keep their capacity, so steady state stays alloc-free).
const (
	maxFuseInsns  = 24
	maxRunSlots   = 2*maxFuseInsns + 2
	opsFlushLimit = 1 << 18
)

// Micro-op codes. Unflagged variants omit all NZCV computation; F variants
// set NZCV as the architecture does. Codes suffixed B are merged
// two-instruction superinstructions ending in a conditional branch.
const (
	fopNop uint8 = iota // cycle/count charge only (dead CMP/TST/CMN, hints, SVC, barriers)

	// Unflagged ALU.
	fopMovImm // R[rd] = imm (MOV, ADR, pc-reads)
	fopMovReg // R[rd] = R[rm] (LSL #0, MOV high)
	fopAddImm // R[rd] = R[rn] + imm (ADD imm3/imm8/SP-relative forms)
	fopSubImm // R[rd] = R[rn] - imm
	fopAddReg // R[rd] = R[rn] + R[rm]
	fopSubReg // R[rd] = R[rn] - R[rm]
	fopAnd    // R[rd] &= R[rm]
	fopEor
	fopOrr
	fopBic
	fopMvn // R[rd] = ^R[rm]
	fopMul // R[rd] *= R[rm] (32 cycles)
	fopNeg // R[rd] = -R[rm]
	fopLslImm
	fopLsrImm // imm 1..31 (LSR #0 means 32: result 0, folded to fopMovImm)
	fopAsrImm // imm 1..31 (ASR #0 maps to imm 31)
	fopLslReg
	fopLsrReg
	fopAsrReg
	fopRorReg
	fopSxth
	fopSxtb
	fopUxth
	fopUxtb
	fopRev
	fopRev16
	fopRevsh
	fopCps

	// Flagged ALU.
	fopMovImmF
	fopMovRegF // setNZ only (LSL #0)
	fopAddImmF
	fopSubImmF
	fopAddRegF
	fopSubRegF
	fopAndF
	fopEorF
	fopOrrF
	fopBicF
	fopMvnF
	fopMulF
	fopNegF
	fopAdc // always flagged (consumes C)
	fopSbc
	fopTstF
	fopCmpImmF // imm is full 32 bits (covers CMP high with a pc operand)
	fopCmpRegF
	fopCmpPCF // CMP pc, rm: imm (= pc+4) minus R[rm], or minus imm when rm is pc
	fopCmnF
	fopLslImmF // imm 1..31
	fopLsrImmF // imm 1..32
	fopAsrImmF // imm 1..32
	fopLslRegF
	fopLsrRegF
	fopAsrRegF
	fopRorRegF

	// Merged superinstructions (cnt = 2; budget-checked between halves).
	fopCmpImmB  // CMP rd, #rn ; B<rm> imm — flags materialize, then branch
	fopCmpRegB  // CMP rd, rm ; B<rn> imm
	fopSubsImmB // SUBS rd, #rn ; B<rm> imm — the loop decrement idiom
	fopShlAdd   // R[rn] = R[rm] << imm ; R[rd] += R[rn] (unflagged)
	fopShlAddF  // same, add flagged

	// Memory (routed through pdLoad/pdStore). Each flushes the accumulated
	// cycles first and may stop the run: before itself on an error, after
	// itself on a yield.
	fopLdrLitC // literal pool load, absolute address precomputed into imm
	fopLdrLitT // literal pool load inside the TEXT window (loadTextLit)
	fopLdrRR   // addr = R[rn] + R[rm]
	fopLdrhRR
	fopLdrbRR
	fopLdrshRR
	fopLdrsbRR
	fopStrRR
	fopStrhRR
	fopStrbRR
	fopLdrRI // addr = R[rn] + imm (immediate and SP-relative forms)
	fopLdrhRI
	fopLdrbRI
	fopStrRI
	fopStrhRI
	fopStrbRI

	// Multi-register transfers: imm is the register mask (bit i = R[i]),
	// rn the base register (SP for PUSH/POP), cyc the cost 1+n (plus
	// cycPopPC for fopPopPC). One word access per listed register, lowest
	// first, through storeMulti/loadMulti, all seeing the one Cycle flushed
	// before the first. A veto or fault at any access stops the run on the
	// instruction with no writeback and no register loaded (earlier stores
	// of a store-multiple stay in memory); a yield at any access stops it
	// after the whole instruction.
	fopStm   // store upward from R[rn]; R[rn] = end address
	fopPush  // store upward from R[rn]-4n; R[rn] = that start address
	fopLdm   // load upward from R[rn]; R[rn] = end unless rn is listed (also POP)
	fopPopPC // POP with PC listed: fopLdm, then return to the popped address

	// Terminators (always the final micro-op; fopPopPC above is one too).
	fopB     // unconditional: next = imm (absolute, precomputed)
	fopBc    // conditional: cond in rd, target in imm, fallthrough endPC
	fopBL    // R[LR] = (pc+rn)|1, next = imm (BL: rn 4; BLX pc: rn 2, target pc+4)
	fopBX    // next = R[rm] &^ 1
	fopBLX   // R[LR] = (pc+2)|1, next = R[rm] &^ 1
	fopAddPC // ADD pc, rm: next = (pc+4+R[rm]) &^ 1
	fopMovPC // MOV pc, rm: next = R[rm] &^ 1
	fopBkpt  // Halt, ErrHalted; PC stays on the BKPT, no cycles charged
	fopUndef // ErrUndefined; imm = first halfword | second halfword << 16
)

// fusedOp is one micro-op: 16 bytes, stored contiguously per run.
type fusedOp struct {
	code uint8
	rd   uint8
	rn   uint8 // base register, second immediate (merged codes), or shift dest
	rm   uint8 // operand register or condition code (merged codes)
	imm  uint32
	pc   uint32 // address of the (first) fused instruction
	cyc  uint8  // cycle cost (branches computed inline instead)
	cnt  uint8  // architectural instructions retired by this micro-op
	_    [2]uint8
}

// fusedRun is one translated basic-block (suffix): a window into the ops
// arena plus the metadata invalidation and budget stops need.
type fusedRun struct {
	off  uint32 // first micro-op in DecodeCache.ops
	n    uint16 // micro-op count
	span uint16 // halfword slots covered from head (invalidation extent)
	// maxCyc is the run's worst-case cycle cost. Budgeted callers execute
	// the run only when the remaining budget covers it, so budget stops
	// land on block boundaries where lazy flags are fully materialized.
	maxCyc uint16
	head   int32  // head slot (= entry pc >> 1)
	endPC  uint32 // fallthrough pc after the last instruction
}

// EnableFusion attaches the superinstruction layer to an already-predecoded
// CPU. Every access goes through the bus, except those an installed access
// port certifies (SetAccessPort). Runs span monitored accesses; a
// veto or fault stops the run at the access with the preceding
// instructions committed, and a bus that calls Yield during an access stops
// it at the boundary right after that instruction, so vetoes, failure
// injection, output bracketing, and cycle budgets land exactly where
// insn-at-a-time execution lands them.
func (c *CPU) EnableFusion() {
	if c.pd == nil || c.pd.runTab != nil {
		return
	}
	c.pd.runTab = make([]int32, MemSize/2)
	c.pd.runCover = make([]uint64, MemSize/2048)
	// Pre-size the translation arenas so steady-state building never
	// reallocates mid-run (a MiBench image translates to a few thousand
	// micro-ops; growth past the caps still works via append).
	c.pd.runs = make([]fusedRun, 0, 1024)
	c.pd.ops = make([]fusedOp, 0, 8192)
	c.pd.fuse = true
}

// DisableFusion turns block discovery off: every instruction then runs as a
// run of length one (Step), the mid tier of the differential tests. The
// decode cache stays.
func (c *CPU) DisableFusion() {
	if c.pd != nil {
		c.pd.fuse = false
	}
}

// FusionEnabled reports whether the superinstruction layer is active.
func (c *CPU) FusionEnabled() bool { return c.pd != nil && c.pd.fuse }

// flushRuns drops every translated run, keeping arena capacity.
func (pd *DecodeCache) flushRuns() {
	if pd.runTab == nil {
		return
	}
	hi := pd.maxSlot
	if hi >= len(pd.runTab) {
		hi = len(pd.runTab) - 1
	}
	for i := 0; i <= hi; i++ {
		pd.runTab[i] = 0
	}
	for i := range pd.runCover {
		pd.runCover[i] = 0
	}
	pd.runs = pd.runs[:0]
	pd.ops = pd.ops[:0]
}

// Flag liveness masks (bit 0 N, 1 Z, 2 C, 3 V). kill is the must-set mask
// (flags unconditionally overwritten), set the may-set mask (a live flag in
// it forces the flagged variant), use the flags read. Register-count shifts
// may or may not write C (shift 0 leaves it), so their kill excludes C.
const (
	flN    = 1
	flZ    = 2
	flC    = 4
	flV    = 8
	flNZ   = flN | flZ
	flNZC  = flN | flZ | flC
	flNZCV = flN | flZ | flC | flV
)

// flagEffect returns (kill, set, use) for a decoded instruction.
func flagEffect(d *DecodedInsn) (kill, set, use uint8) {
	switch d.Kind {
	case kindMOVImm, kindAND, kindEOR, kindORR, kindBIC, kindMVN, kindMUL, kindTST:
		return flNZ, flNZ, 0
	case kindLSLImm:
		if d.Imm == 0 {
			return flNZ, flNZ, 0 // MOVS Rd, Rm: C untouched
		}
		return flNZC, flNZC, 0
	case kindLSRImm, kindASRImm:
		return flNZC, flNZC, 0
	case kindLSLReg, kindLSRReg, kindASRReg, kindROR:
		return flNZ, flNZC, 0 // C written only when the count is non-zero
	case kindADDReg, kindSUBReg, kindADDImm3, kindSUBImm3, kindCMPImm,
		kindADDImm8, kindSUBImm8, kindNEG, kindCMPReg, kindCMN, kindCMPHi:
		return flNZCV, flNZCV, 0
	case kindADC, kindSBC:
		return flNZCV, flNZCV, flC
	case kindBCond:
		return 0, 0, flNZCV
	}
	return 0, 0, 0
}

// buildRun discovers and translates the basic-block suffix starting at pc,
// installing it in runTab. A block of one instruction (a lone B, BX lr or
// POP {..., pc} at a branch target) is a run too, so chaining never leaves
// the loop for it. buildRun returns the run id (>0), or -1 after marking the
// slot unfusable: a head whose own instruction cannot be cached (its fetch
// faults, it lies past the TEXT window, or a freeze build refuses it),
// which Step then runs.
func (c *CPU) buildRun(pc uint32) int32 {
	pd := c.pd
	if pd.frozen {
		// Defensive: callers guard on frozen before building. Returning -1
		// without touching runTab sends the caller to the single-step path.
		return -1
	}
	if len(pd.ops) > opsFlushLimit {
		pd.flushRuns()
	}
	head := int32(pc >> 1)

	// Scan: collect the block's decoded instructions. decode both
	// classifies TEXT literals and raises maxSlot over every scanned slot,
	// which is what keeps the Invalidate watermark sound for lookahead
	// slots the single-step path never executed.
	var ds [maxFuseInsns]DecodedInsn
	var pcs [maxFuseInsns]uint32
	n := 0
	cur := pc
	textEnd := c.textHiW * 4 // 0 when no TEXT window is set
	wc := uint32(0)          // worst-case cycle cost of the accepted instructions
	for n < maxFuseInsns {
		if cur >= MemSize || (textEnd != 0 && cur >= textEnd) {
			break
		}
		d := &pd.tab[(cur>>1)&(MemSize/2-1)]
		if d.Kind == kindNone {
			if cached, err := c.decode(d, cur); err != nil || cached != d {
				break
			}
		}
		final := false
		switch d.Kind {
		case kindPOP:
			final = d.Raw&(1<<PC) != 0 // POP with PC in the list is a return
		case kindBCond, kindB, kindBL, kindBXBLX, kindBKPT, kindUndef:
			final = true
		case kindADDHi, kindMOVHi:
			final = d.Rd == PC
		}
		ds[n] = *d
		pcs[n] = cur
		n++
		wc += worstCycles(d)
		cur += insnBytes(d)
		if final {
			break
		}
	}
	if n < 1 {
		pd.runTab[head] = -1
		return -1
	}
	endPC := cur

	// Lazy flags: backward liveness with all flags live at run exit.
	// Memory accesses (PUSH/POP/LDM/STM included) are early-stop points
	// even mid-run: a fault or veto leaves PC at the access with the
	// preceding boundary's flags observable, and a yield or a store that
	// invalidates its own run stops right after the access. Treat them as
	// full flag barriers so NZCV is architecturally exact at those
	// boundaries.
	var needF [maxFuseInsns]bool
	live := uint8(flNZCV)
	for i := n - 1; i >= 0; i-- {
		k := ds[i].Kind
		if isMemKind(k) || k == kindPUSH || k == kindPOP || k == kindLDM || k == kindSTM {
			live = flNZCV
		}
		kill, set, use := flagEffect(&ds[i])
		needF[i] = set&live != 0
		live = live&^kill | use
	}

	// Translate forward, then merge idiom pairs.
	off := uint32(len(pd.ops))
	for i := 0; i < n; i++ {
		pd.ops = append(pd.ops, fusedOp{})
		translate(&pd.ops[len(pd.ops)-1], &ds[i], pcs[i], needF[i])
	}
	ops := mergePairs(pd.ops[off:])
	pd.ops = pd.ops[:int(off)+len(ops)]

	pd.runs = append(pd.runs, fusedRun{
		off:    off,
		n:      uint16(len(ops)),
		span:   uint16((endPC - pc) >> 1),
		maxCyc: uint16(wc),
		head:   head,
		endPC:  endPC,
	})
	rid := int32(len(pd.runs))
	pd.runTab[head] = rid
	for b := head >> 4; b <= (head+int32((endPC-pc)>>1)-1)>>4; b++ {
		pd.runCover[b>>6] |= 1 << (uint(b) & 63)
	}
	return rid
}

func isMemKind(k uint8) bool {
	return (k >= kindLDRLit && k <= kindLDRSP) || k == kindLDRLitText
}

// worstCycles bounds one decoded instruction's cycle cost from above; the
// per-run sum (fusedRun.maxCyc) is the budget gate that keeps budget stops
// off interior instruction boundaries.
func worstCycles(d *DecodedInsn) uint32 {
	switch d.Kind {
	case kindMUL:
		return cycMul
	case kindBL:
		return cycBL
	case kindB, kindBCond:
		return cycBranchTaken
	case kindBXBLX, kindADDHi, kindMOVHi, kindCMPHi:
		return cycBX // upper bound: the non-pc forms charge cycALU
	case kindSVC, kindSYS32:
		return cycSys
	case kindBKPT, kindUndef:
		return 0
	case kindPUSH, kindSTM, kindLDM:
		return 1 + uint32(d.Rn)
	case kindPOP:
		return 1 + uint32(d.Rn) + cycPopPC
	}
	if isMemKind(d.Kind) {
		return cycLoad // == cycStore
	}
	return cycALU
}

// insnBytes is the encoded length of a decoded instruction: 4 for the
// 32-bit encodings (BL, the system pairs, an undefined 32-bit pair), else 2.
func insnBytes(d *DecodedInsn) uint32 {
	if d.Kind == kindBL || d.Kind == kindSYS32 || d.Kind == kindUndef && is32(d.Raw) {
		return 4
	}
	return 2
}

// translate writes the micro-op for one decoded instruction at pc into op,
// and nothing else. flagged selects the NZCV-computing variant of a flag
// setter; Step passes true, buildRun the liveness verdict. It stores the
// fields one by one, in place: a whole-record copy (returning the op, or
// assigning a composite literal through op) reads back a temporary built
// by byte-wide stores, stalls on store forwarding, and cost a Step about
// 40% of its time.
func translate(op *fusedOp, d *DecodedInsn, pc uint32, flagged bool) {
	op.code, op.rd, op.rn, op.rm = fopNop, d.Rd, d.Rn, d.Rm
	op.imm, op.pc, op.cyc, op.cnt = d.Imm, pc, cycALU, 1
	switch d.Kind {
	case kindLSLImm:
		switch {
		case d.Imm == 0 && flagged:
			op.code = fopMovRegF
		case d.Imm == 0:
			op.code = fopMovReg
		case flagged:
			op.code = fopLslImmF
		default:
			op.code = fopLslImm
		}
	case kindLSRImm:
		switch {
		case d.Imm == 0 && flagged:
			op.code, op.imm = fopLsrImmF, 32
		case d.Imm == 0:
			op.code, op.imm = fopMovImm, 0
		case flagged:
			op.code = fopLsrImmF
		default:
			op.code = fopLsrImm
		}
	case kindASRImm:
		switch {
		case d.Imm == 0 && flagged:
			op.code, op.imm = fopAsrImmF, 32
		case d.Imm == 0:
			op.code, op.imm = fopAsrImm, 31
		case flagged:
			op.code = fopAsrImmF
		default:
			op.code = fopAsrImm
		}
	case kindADDReg:
		op.code = pick(flagged, fopAddRegF, fopAddReg)
	case kindSUBReg:
		op.code = pick(flagged, fopSubRegF, fopSubReg)
	case kindADDImm3:
		op.code = pick(flagged, fopAddImmF, fopAddImm)
	case kindSUBImm3:
		op.code = pick(flagged, fopSubImmF, fopSubImm)
	case kindMOVImm:
		op.code = pick(flagged, fopMovImmF, fopMovImm)
	case kindCMPImm:
		op.code = pick(flagged, fopCmpImmF, fopNop)
	case kindADDImm8:
		op.code, op.rn = pick(flagged, fopAddImmF, fopAddImm), d.Rd
	case kindSUBImm8:
		op.code, op.rn = pick(flagged, fopSubImmF, fopSubImm), d.Rd
	case kindAND:
		op.code = pick(flagged, fopAndF, fopAnd)
	case kindEOR:
		op.code = pick(flagged, fopEorF, fopEor)
	case kindLSLReg:
		op.code = pick(flagged, fopLslRegF, fopLslReg)
	case kindLSRReg:
		op.code = pick(flagged, fopLsrRegF, fopLsrReg)
	case kindASRReg:
		op.code = pick(flagged, fopAsrRegF, fopAsrReg)
	case kindADC:
		op.code = fopAdc
	case kindSBC:
		op.code = fopSbc
	case kindROR:
		op.code = pick(flagged, fopRorRegF, fopRorReg)
	case kindTST:
		op.code = pick(flagged, fopTstF, fopNop)
	case kindNEG:
		op.code = pick(flagged, fopNegF, fopNeg)
	case kindCMPReg:
		op.code = pick(flagged, fopCmpRegF, fopNop)
	case kindCMN:
		op.code = pick(flagged, fopCmnF, fopNop)
	case kindORR:
		op.code = pick(flagged, fopOrrF, fopOrr)
	case kindMUL:
		op.code, op.cyc = pick(flagged, fopMulF, fopMul), cycMul
	case kindBIC:
		op.code = pick(flagged, fopBicF, fopBic)
	case kindMVN:
		op.code = pick(flagged, fopMvnF, fopMvn)

	case kindADDHi:
		switch {
		case d.Rd == PC && d.Rm == PC:
			op.code, op.imm = fopB, (pc+4+pc+4)&^1
		case d.Rd == PC:
			op.code = fopAddPC
		case d.Rm == PC:
			op.code, op.rn, op.imm = fopAddImm, d.Rd, pc+4
		default:
			op.code, op.rn = fopAddReg, d.Rd
		}
	case kindCMPHi:
		switch {
		case d.Rd == PC:
			op.code, op.imm = fopCmpPCF, pc+4
		case d.Rm == PC:
			op.code, op.imm = fopCmpImmF, pc+4
		default:
			op.code = fopCmpRegF
		}
	case kindMOVHi:
		switch {
		case d.Rd == PC && d.Rm == PC:
			op.code, op.imm = fopB, (pc+4)&^1
		case d.Rd == PC:
			op.code = fopMovPC
		case d.Rm == PC:
			op.code, op.imm = fopMovImm, pc+4
		default:
			op.code = fopMovReg
		}
	case kindBXBLX:
		if d.Raw&0x80 != 0 && d.Rm == PC {
			op.code, op.rn, op.imm, op.cyc = fopBL, 2, (pc+4)&^1, cycBX
		} else if d.Raw&0x80 != 0 {
			op.code = fopBLX
		} else if d.Rm == PC {
			op.code, op.imm = fopB, (pc+4)&^1
		} else {
			op.code = fopBX
		}

	case kindLDRLit:
		op.code, op.imm, op.cyc = fopLdrLitC, ((pc+4)&^3)+d.Imm, cycLoad
	case kindLDRLitText:
		op.code, op.cyc = fopLdrLitT, cycLoad
	case kindSTRReg:
		op.code, op.cyc = fopStrRR, cycStore
	case kindSTRHReg:
		op.code, op.cyc = fopStrhRR, cycStore
	case kindSTRBReg:
		op.code, op.cyc = fopStrbRR, cycStore
	case kindLDRSBReg:
		op.code, op.cyc = fopLdrsbRR, cycLoad
	case kindLDRReg:
		op.code, op.cyc = fopLdrRR, cycLoad
	case kindLDRHReg:
		op.code, op.cyc = fopLdrhRR, cycLoad
	case kindLDRBReg:
		op.code, op.cyc = fopLdrbRR, cycLoad
	case kindLDRSHReg:
		op.code, op.cyc = fopLdrshRR, cycLoad
	case kindSTRImm:
		op.code, op.cyc = fopStrRI, cycStore
	case kindLDRImm:
		op.code, op.cyc = fopLdrRI, cycLoad
	case kindSTRBImm:
		op.code, op.cyc = fopStrbRI, cycStore
	case kindLDRBImm:
		op.code, op.cyc = fopLdrbRI, cycLoad
	case kindSTRHImm:
		op.code, op.cyc = fopStrhRI, cycStore
	case kindLDRHImm:
		op.code, op.cyc = fopLdrhRI, cycLoad
	case kindSTRSP:
		op.code, op.rn, op.cyc = fopStrRI, SP, cycStore
	case kindLDRSP:
		op.code, op.rn, op.cyc = fopLdrRI, SP, cycLoad

	case kindPUSH:
		op.code, op.rn, op.imm, op.cyc = fopPush, SP, uint32(d.Raw), 1+d.Rn
	case kindSTM:
		op.code, op.rn, op.imm, op.cyc = fopStm, d.Rd, uint32(d.Raw), 1+d.Rn
	case kindLDM:
		op.code, op.rn, op.imm, op.cyc = fopLdm, d.Rd, uint32(d.Raw), 1+d.Rn
	case kindPOP:
		op.code, op.rn, op.imm, op.cyc = fopLdm, SP, uint32(d.Raw), 1+d.Rn
		if d.Raw&(1<<PC) != 0 {
			op.code, op.cyc = fopPopPC, 1+d.Rn+cycPopPC
		}

	case kindADR:
		op.code, op.imm = fopMovImm, ((pc+4)&^3)+d.Imm
	case kindADDSPImm:
		op.code, op.rn = fopAddImm, SP
	case kindADDSP7:
		op.code, op.rd, op.rn = fopAddImm, SP, SP
	case kindSUBSP7:
		op.code, op.rd, op.rn = fopSubImm, SP, SP
	case kindSXTH:
		op.code = fopSxth
	case kindSXTB:
		op.code = fopSxtb
	case kindUXTH:
		op.code = fopUxth
	case kindUXTB:
		op.code = fopUxtb
	case kindREV:
		op.code = fopRev
	case kindREV16:
		op.code = fopRev16
	case kindREVSH:
		op.code = fopRevsh
	case kindNOPHint:
		op.code = fopNop
	case kindCPS:
		op.code = fopCps
	case kindSVC, kindSYS32:
		op.code, op.cyc = fopNop, cycSys
	case kindBKPT:
		op.code, op.cyc = fopBkpt, 0
	case kindUndef:
		op.code, op.imm, op.cyc = fopUndef, uint32(d.Raw)|d.Imm<<16, 0

	case kindBCond:
		op.code, op.imm = fopBc, uint32(int32(pc+4)+int32(d.Imm))
	case kindB:
		op.code, op.imm = fopB, uint32(int32(pc+4)+int32(d.Imm))
	case kindBL:
		op.code, op.rn, op.imm, op.cyc = fopBL, 4, uint32(int32(pc+4)+int32(d.Imm)), cycBL
	}
}

func pick(flagged bool, f, u uint8) uint8 {
	if flagged {
		return f
	}
	return u
}

// mergePairs collapses the idiom pairs into single superinstruction
// micro-ops. The merged handlers check the cycle budget between their two
// halves, so budget stops still land on every instruction boundary.
func mergePairs(ops []fusedOp) []fusedOp {
	w := 0
	for i := range ops {
		op := ops[i]
		if w > 0 && op.cnt == 1 {
			p := &ops[w-1]
			switch {
			case op.code == fopBc && p.cnt == 1:
				switch p.code {
				case fopCmpImmF:
					// CMP rd, #imm ; Bcc target. The imm8 guard excludes the
					// CMP-high form whose folded pc+4 operand wouldn't fit rn.
					if p.imm <= 0xFF {
						*p = fusedOp{code: fopCmpImmB, rd: p.rd, rn: uint8(p.imm),
							rm: op.rd, imm: op.imm, pc: p.pc, cyc: 2, cnt: 2}
						continue
					}
				case fopCmpRegF:
					*p = fusedOp{code: fopCmpRegB, rd: p.rd, rm: p.rm,
						rn: op.rd, imm: op.imm, pc: p.pc, cyc: 2, cnt: 2}
					continue
				case fopSubImmF:
					// SUBS rd, #imm ; Bcc target — only the 8-bit rd==rn form.
					if p.rd == p.rn && p.imm <= 0xFF {
						*p = fusedOp{code: fopSubsImmB, rd: p.rd, rn: uint8(p.imm),
							rm: op.rd, imm: op.imm, pc: p.pc, cyc: 2, cnt: 2}
						continue
					}
				}
			case (op.code == fopAddReg || op.code == fopAddRegF) &&
				p.code == fopLslImm && p.cnt == 1 && p.rd != p.rm:
				// LSLS t, s, #n ; ADD a, a, t (either operand order), a != t:
				// the indexed-addressing idiom. t keeps its architectural
				// value (the handler writes it), a accumulates the shifted s.
				var acc uint8
				ok := false
				if op.rd == op.rn && op.rm == p.rd && op.rn != p.rd {
					acc, ok = op.rd, true
				} else if op.rd == op.rm && op.rn == p.rd && op.rm != p.rd {
					acc, ok = op.rd, true
				}
				if ok {
					code := fopShlAdd
					if op.code == fopAddRegF {
						code = fopShlAddF
					}
					*p = fusedOp{code: code, rd: acc, rn: p.rd, rm: p.rm,
						imm: p.imm, pc: p.pc, cyc: 2, cnt: 2}
					continue
				}
			}
		}
		ops[w] = op
		w++
	}
	return ops[:w]
}

// execRun executes fused runs starting at rid, chaining block to block
// until the cycle budget can no longer cover a whole run, an unfusable pc
// is hit, or the bus calls Yield during an access (the driver's
// post-access hooks fire at that instruction boundary, so control returns
// right after the yielding instruction, even mid-run). Callers must pass
// a rid whose run fits the budget (budget >= maxCyc) — StepFused steps
// otherwise — and the chain point re-checks that gate per block, so budget
// stops always land on block boundaries where every lazily-tracked flag is
// materialized; the interior cum-vs-budget checks are a defensive backstop
// only. rid 0 is Step's scratch run (c.step), which Step enters with a
// budget of 1: every micro-op that completes costs at least one cycle (BKPT
// and undefined encodings return before charging), so it stops after its
// one instruction without consulting the run table. On success PC,
// Cycle, and Insns reflect every completed instruction; on error they
// reflect the instructions before the failing one, whose address is left
// in PC.
func (c *CPU) execRun(rid int32, budget uint64) error {
	pd := c.pd
	var (
		r   *fusedRun
		ops []fusedOp
		cum uint64 // cycles accumulated since the last flush to c.Cycle
		ret uint64 // instructions retired
		pc  uint32 // resumption address once a stop reason is found
	)
	c.yield = false
	if rid == 0 {
		r, ops = &c.step, c.stepOp[:]
		goto exec
	}
next:
	r = &pd.runs[rid-1]
	ops = pd.ops[r.off : r.off+uint32(r.n)]
exec:
	for i := range ops {
		op := &ops[i]
		switch op.code {
		case fopNop, fopCps:
			if op.code == fopCps {
				c.Prim = op.imm != 0
			}

		case fopMovImm:
			c.R[op.rd&15] = op.imm
		case fopMovReg:
			c.R[op.rd&15] = c.R[op.rm&15]
		case fopAddImm:
			c.R[op.rd&15] = c.R[op.rn&15] + op.imm
		case fopSubImm:
			c.R[op.rd&15] = c.R[op.rn&15] - op.imm
		case fopAddReg:
			c.R[op.rd&15] = c.R[op.rn&15] + c.R[op.rm&15]
		case fopSubReg:
			c.R[op.rd&15] = c.R[op.rn&15] - c.R[op.rm&15]
		case fopAnd:
			c.R[op.rd&15] &= c.R[op.rm&15]
		case fopEor:
			c.R[op.rd&15] ^= c.R[op.rm&15]
		case fopOrr:
			c.R[op.rd&15] |= c.R[op.rm&15]
		case fopBic:
			c.R[op.rd&15] &^= c.R[op.rm&15]
		case fopMvn:
			c.R[op.rd&15] = ^c.R[op.rm&15]
		case fopMul:
			c.R[op.rd&15] *= c.R[op.rm&15]
		case fopNeg:
			c.R[op.rd&15] = -c.R[op.rm&15]
		case fopLslImm:
			c.R[op.rd&15] = c.R[op.rm&15] << op.imm
		case fopLsrImm:
			c.R[op.rd&15] = c.R[op.rm&15] >> op.imm
		case fopAsrImm:
			c.R[op.rd&15] = uint32(int32(c.R[op.rm&15]) >> op.imm)
		case fopLslReg:
			sh := c.R[op.rm&15] & 0xFF
			v := c.R[op.rd&15]
			if sh >= 32 {
				v = 0
			} else {
				v <<= sh
			}
			c.R[op.rd&15] = v
		case fopLsrReg:
			sh := c.R[op.rm&15] & 0xFF
			v := c.R[op.rd&15]
			if sh >= 32 {
				v = 0
			} else {
				v >>= sh
			}
			c.R[op.rd&15] = v
		case fopAsrReg:
			sh := c.R[op.rm&15] & 0xFF
			if sh >= 32 {
				sh = 31
			}
			c.R[op.rd&15] = uint32(int32(c.R[op.rd&15]) >> sh)
		case fopRorReg:
			if sh := c.R[op.rm&15] & 31; sh != 0 {
				v := c.R[op.rd&15]
				c.R[op.rd&15] = v>>sh | v<<(32-sh)
			}
		case fopSxth:
			c.R[op.rd&15] = signExt16(c.R[op.rm&15])
		case fopSxtb:
			c.R[op.rd&15] = signExt8(c.R[op.rm&15])
		case fopUxth:
			c.R[op.rd&15] = c.R[op.rm&15] & 0xFFFF
		case fopUxtb:
			c.R[op.rd&15] = c.R[op.rm&15] & 0xFF
		case fopRev:
			v := c.R[op.rm&15]
			c.R[op.rd&15] = v<<24 | v>>24 | (v&0xFF00)<<8 | (v>>8)&0xFF00
		case fopRev16:
			v := c.R[op.rm&15]
			c.R[op.rd&15] = (v&0x00FF00FF)<<8 | (v>>8)&0x00FF00FF
		case fopRevsh:
			v := c.R[op.rm&15]
			c.R[op.rd&15] = uint32(int32(int16(v<<8 | (v>>8)&0xFF)))

		case fopMovImmF:
			c.R[op.rd&15] = op.imm
			c.setNZ(op.imm)
		case fopMovRegF:
			v := c.R[op.rm&15]
			c.R[op.rd&15] = v
			c.setNZ(v)
		case fopAddImmF:
			c.R[op.rd&15] = c.addFlags(c.R[op.rn&15], op.imm, false)
		case fopSubImmF:
			c.R[op.rd&15] = c.addFlags(c.R[op.rn&15], ^op.imm, true)
		case fopAddRegF:
			c.R[op.rd&15] = c.addFlags(c.R[op.rn&15], c.R[op.rm&15], false)
		case fopSubRegF:
			c.R[op.rd&15] = c.addFlags(c.R[op.rn&15], ^c.R[op.rm&15], true)
		case fopAndF:
			c.R[op.rd&15] &= c.R[op.rm&15]
			c.setNZ(c.R[op.rd&15])
		case fopEorF:
			c.R[op.rd&15] ^= c.R[op.rm&15]
			c.setNZ(c.R[op.rd&15])
		case fopOrrF:
			c.R[op.rd&15] |= c.R[op.rm&15]
			c.setNZ(c.R[op.rd&15])
		case fopBicF:
			c.R[op.rd&15] &^= c.R[op.rm&15]
			c.setNZ(c.R[op.rd&15])
		case fopMvnF:
			c.R[op.rd&15] = ^c.R[op.rm&15]
			c.setNZ(c.R[op.rd&15])
		case fopMulF:
			c.R[op.rd&15] *= c.R[op.rm&15]
			c.setNZ(c.R[op.rd&15])
		case fopNegF:
			c.R[op.rd&15] = c.addFlags(^c.R[op.rm&15], 0, true)
		case fopAdc:
			c.R[op.rd&15] = c.addFlags(c.R[op.rd&15], c.R[op.rm&15], c.C)
		case fopSbc:
			c.R[op.rd&15] = c.addFlags(c.R[op.rd&15], ^c.R[op.rm&15], c.C)
		case fopTstF:
			c.setNZ(c.R[op.rd&15] & c.R[op.rm&15])
		case fopCmpImmF:
			c.addFlags(c.R[op.rd&15], ^op.imm, true)
		case fopCmpRegF:
			c.addFlags(c.R[op.rd&15], ^c.R[op.rm&15], true)
		case fopCmpPCF:
			y := op.imm
			if op.rm != PC {
				y = c.R[op.rm&15]
			}
			c.addFlags(op.imm, ^y, true)
		case fopCmnF:
			c.addFlags(c.R[op.rd&15], c.R[op.rm&15], false)
		case fopLslImmF:
			v := c.R[op.rm&15]
			c.C = v&(1<<(32-op.imm)) != 0
			v <<= op.imm
			c.R[op.rd&15] = v
			c.setNZ(v)
		case fopLsrImmF:
			v := c.R[op.rm&15]
			if op.imm == 32 {
				c.C = v&0x80000000 != 0
				v = 0
			} else {
				c.C = v&(1<<(op.imm-1)) != 0
				v >>= op.imm
			}
			c.R[op.rd&15] = v
			c.setNZ(v)
		case fopAsrImmF:
			v := int32(c.R[op.rm&15])
			if op.imm == 32 {
				c.C = v < 0
				v >>= 31
			} else {
				c.C = v&(1<<(op.imm-1)) != 0
				v >>= op.imm
			}
			c.R[op.rd&15] = uint32(v)
			c.setNZ(uint32(v))
		case fopLslRegF:
			sh := c.R[op.rm&15] & 0xFF
			v := c.R[op.rd&15]
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
			c.R[op.rd&15] = v
			c.setNZ(v)
		case fopLsrRegF:
			sh := c.R[op.rm&15] & 0xFF
			v := c.R[op.rd&15]
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
			c.R[op.rd&15] = v
			c.setNZ(v)
		case fopAsrRegF:
			sh := c.R[op.rm&15] & 0xFF
			v := int32(c.R[op.rd&15])
			switch {
			case sh == 0:
			case sh < 32:
				c.C = v&(1<<(sh-1)) != 0
				v >>= sh
			default:
				c.C = v < 0
				v >>= 31
			}
			c.R[op.rd&15] = uint32(v)
			c.setNZ(uint32(v))
		case fopRorRegF:
			sh := c.R[op.rm&15] & 0xFF
			v := c.R[op.rd&15]
			if sh != 0 {
				rr := sh & 31
				if rr == 0 {
					c.C = v&0x80000000 != 0
				} else {
					v = v>>rr | v<<(32-rr)
					c.C = v&0x80000000 != 0
				}
			}
			c.R[op.rd&15] = v
			c.setNZ(v)

		case fopCmpImmB, fopCmpRegB, fopSubsImmB:
			// Merged compare/decrement + conditional branch. The compare
			// half commits first; the boundary check between the halves is
			// the defensive backstop (entry gating means it never fires).
			cond := int(op.rm)
			switch op.code {
			case fopCmpImmB:
				c.addFlags(c.R[op.rd&15], ^uint32(op.rn), true)
			case fopSubsImmB:
				c.R[op.rd&15] = c.addFlags(c.R[op.rd&15], ^uint32(op.rn), true)
			default:
				cond = int(op.rn)
				c.addFlags(c.R[op.rd&15], ^c.R[op.rm&15], true)
			}
			cum += cycALU
			ret++
			if cum >= budget {
				pc = op.pc + 2
				goto stop
			}
			ret++
			if c.condPasses(cond) {
				cum += cycBranchTaken
				pc = op.imm
			} else {
				cum += cycBranchNot
				pc = r.endPC
			}
			goto chain
		case fopShlAdd, fopShlAddF:
			// LSLS t, s, #n ; ADD a, a, t — budget-checked between halves.
			s := c.R[op.rm&15] << op.imm
			c.R[op.rn&15] = s
			cum += cycALU
			ret++
			if cum >= budget {
				pc = op.pc + 2
				goto stop
			}
			if op.code == fopShlAdd {
				c.R[op.rd&15] += s
			} else {
				c.R[op.rd&15] = c.addFlags(c.R[op.rd&15], s, false)
			}
			cum += cycALU
			ret++
			if cum >= budget {
				pc = nextPC(r, ops, i)
				goto stop
			}
			continue

		case fopStm, fopPush:
			c.Cycle += cum
			budget -= cum
			cum = 0
			rn := op.rn & 15
			start := c.R[rn]
			if op.code == fopPush {
				start -= 4 * uint32(bits.OnesCount32(op.imm))
			}
			end, err := c.storeMulti(start, op.imm, op.pc)
			if err != nil {
				return c.runFault(op.pc, ret, err)
			}
			if op.code == fopPush {
				end = start
			}
			c.R[rn] = end
			cum += uint64(op.cyc)
			ret++
			// The single stores' budget, yield and self-modifying-text check.
			if cum >= budget || c.yield || pd.runTab[r.head] != rid {
				pc = nextPC(r, ops, i)
				goto stop
			}
			continue
		case fopLdm, fopPopPC:
			c.Cycle += cum
			budget -= cum
			cum = 0
			rn := op.rn & 15
			end, err := c.loadMulti(c.R[rn], op.imm, op.pc)
			if err != nil {
				return c.runFault(op.pc, ret, err)
			}
			if op.imm&(1<<rn) == 0 {
				c.R[rn] = end
			}
			if op.code == fopPopPC {
				cum += uint64(op.cyc)
				ret++
				pc = c.R[PC] &^ 1
				if c.yield {
					goto stop
				}
				goto chain
			}

		case fopLdrLitC:
			c.Cycle += cum
			budget -= cum
			cum = 0
			v, err := c.pdLoad(op.imm, 4, op.pc)
			if err != nil {
				return c.runFault(op.pc, ret, err)
			}
			c.R[op.rd&15] = v
		case fopLdrLitT:
			c.Cycle += cum
			budget -= cum
			cum = 0
			v, err := c.loadTextLit(op.imm, op.pc)
			if err != nil {
				return c.runFault(op.pc, ret, err)
			}
			c.R[op.rd&15] = v
		case fopLdrRR, fopLdrhRR, fopLdrbRR, fopLdrshRR, fopLdrsbRR:
			c.Cycle += cum
			budget -= cum
			cum = 0
			addr := c.R[op.rn&15] + c.R[op.rm&15]
			var size uint8 = 4
			switch op.code {
			case fopLdrhRR, fopLdrshRR:
				size = 2
			case fopLdrbRR, fopLdrsbRR:
				size = 1
			}
			v, err := c.pdLoad(addr, size, op.pc)
			if err != nil {
				return c.runFault(op.pc, ret, err)
			}
			switch op.code {
			case fopLdrshRR:
				v = signExt16(v)
			case fopLdrsbRR:
				v = signExt8(v)
			}
			c.R[op.rd&15] = v
		case fopLdrRI, fopLdrhRI, fopLdrbRI:
			c.Cycle += cum
			budget -= cum
			cum = 0
			size := uint8(4)
			if op.code == fopLdrhRI {
				size = 2
			} else if op.code == fopLdrbRI {
				size = 1
			}
			v, err := c.pdLoad(c.R[op.rn&15]+op.imm, size, op.pc)
			if err != nil {
				return c.runFault(op.pc, ret, err)
			}
			c.R[op.rd&15] = v
		case fopStrRR, fopStrhRR, fopStrbRR, fopStrRI, fopStrhRI, fopStrbRI:
			c.Cycle += cum
			budget -= cum
			cum = 0
			var addr uint32
			var size uint8
			switch op.code {
			case fopStrRR:
				addr, size = c.R[op.rn&15]+c.R[op.rm&15], 4
			case fopStrhRR:
				addr, size = c.R[op.rn&15]+c.R[op.rm&15], 2
			case fopStrbRR:
				addr, size = c.R[op.rn&15]+c.R[op.rm&15], 1
			case fopStrRI:
				addr, size = c.R[op.rn&15]+op.imm, 4
			case fopStrhRI:
				addr, size = c.R[op.rn&15]+op.imm, 2
			default:
				addr, size = c.R[op.rn&15]+op.imm, 1
			}
			if err := c.pdStore(addr, size, c.R[op.rd&15], op.pc); err != nil {
				return c.runFault(op.pc, ret, err)
			}
			cum += uint64(op.cyc)
			ret++
			// The bus may have asked to regain control after this
			// instruction, and a store may have invalidated this very run
			// (self-modifying text): Invalidate cleared runTab before the
			// store returned, so one compare re-validates the remainder.
			// The budget test comes first, which is what stops Step's
			// scratch run (rid 0) before the run table is consulted.
			if cum >= budget || c.yield || pd.runTab[r.head] != rid {
				pc = nextPC(r, ops, i)
				goto stop
			}
			continue

		case fopB:
			cum += cycBranchTaken
			ret++
			pc = op.imm
			goto chain
		case fopBc:
			ret++
			if c.condPasses(int(op.rd)) {
				cum += cycBranchTaken
				pc = op.imm
			} else {
				cum += cycBranchNot
				pc = r.endPC
			}
			goto chain
		case fopBL:
			c.R[LR] = (op.pc + uint32(op.rn)) | 1
			cum += uint64(op.cyc)
			ret++
			pc = op.imm
			goto chain
		case fopBX:
			cum += cycBX
			ret++
			pc = c.R[op.rm&15] &^ 1
			goto chain
		case fopBLX:
			pc = c.R[op.rm&15] &^ 1
			c.R[LR] = (op.pc + 2) | 1
			cum += cycBX
			ret++
			goto chain
		case fopAddPC:
			pc = (op.pc + 4 + c.R[op.rm&15]) &^ 1
			cum += cycBX
			ret++
			goto chain
		case fopMovPC:
			pc = c.R[op.rm&15] &^ 1
			cum += cycBX
			ret++
			goto chain
		case fopBkpt:
			c.Halt = true
			c.Cycle += cum
			return c.runFault(op.pc, ret, ErrHalted)
		case fopUndef:
			c.Cycle += cum
			return c.runFault(op.pc, ret, undefined(uint16(op.imm), uint16(op.imm>>16), op.pc))
		}

		// Common boundary for the simple (non-branch, non-store) micro-ops:
		// charge the op, then stop if the budget is exhausted or a load's
		// bus asked to regain control after it.
		cum += uint64(op.cyc)
		ret += uint64(op.cnt)
		if cum >= budget || c.yield {
			pc = nextPC(r, ops, i)
			goto stop
		}
	}
	pc = r.endPC

chain:
	// Block boundary with budget to spare: thread straight into the run at
	// the new pc, building it on first encounter, and return to the caller
	// when the target is unfusable (it steps from there) or the
	// remaining budget no longer covers the target's worst case — budget
	// stops land only here, on block boundaries with exact flags.
	if cum >= budget || pc >= MemSize {
		goto stop
	}
	rid = pd.runTab[pc>>1]
	if rid == 0 && !pd.frozen {
		rid = c.buildRun(pc)
	}
	if rid <= 0 || budget-cum < uint64(pd.runs[rid-1].maxCyc) {
		goto stop
	}
	goto next

stop:
	c.R[PC] = pc
	c.Cycle += cum
	c.Insns += ret
	return nil
}

// nextPC is the address of the instruction after micro-op i.
func nextPC(r *fusedRun, ops []fusedOp, i int) uint32 {
	if i+1 < len(ops) {
		return ops[i+1].pc
	}
	return r.endPC
}

// runFault finalizes an error raised by micro-op at pc: everything before
// it is committed (cycles were flushed before the access), the faulting
// instruction has had no architectural effect, and PC points at it — the
// driver's retry (after a checkpoint veto) re-executes it.
func (c *CPU) runFault(pc uint32, ret uint64, err error) error {
	c.R[PC] = pc
	c.Insns += ret
	return err
}
