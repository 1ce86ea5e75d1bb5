package armsim

// Predecoded instruction cache. Fetching through Bus.Fetch16 and walking
// the nested Thumb decode switches for every executed instruction used to
// be the dominant simulation cost, so each 16-bit instruction (and 32-bit
// BL/system pair) is decoded once into a flat DecodedInsn record, indexed
// by halfword address. Both consumers read the records from here: fused-run
// discovery (fuse.go), which translates a block of them into micro-ops, and
// Step, which translates the one at PC.
//
// Correctness rule: the cache must always agree with what Bus.Fetch16 would
// return. Memory is the single backing store for instruction fetch, so the
// cache registers a write hook on it (Memory.SetWriteHook) and invalidates
// the halfword entries overlapping every mutation — data stores landing in
// the text region (self-modifying or data-over-text writes), checkpoint
// drains (Memory.WriteWord), image loads, resets, and snapshot restores.
// Because the window extends one halfword below the written range, a store
// into the second half of a cached 32-bit BL also invalidates it. Power
// failures never flush the cache: non-volatile memory survives them, so
// every cached entry is still exact after a rollback.

import (
	"fmt"
	"math/bits"

	"repro/internal/accfilter"
)

// Instruction kinds. translate (fuse.go) switches on this dense
// enumeration, which the compiler lowers to a jump table. kindNone (the
// zero value) marks an undecoded cache slot.
const (
	kindNone uint8 = iota

	// Shift (immediate), add, subtract, move, compare.
	kindLSLImm
	kindLSRImm
	kindASRImm
	kindADDReg
	kindSUBReg
	kindADDImm3
	kindSUBImm3
	kindMOVImm
	kindCMPImm
	kindADDImm8
	kindSUBImm8

	// Data processing (register).
	kindAND
	kindEOR
	kindLSLReg
	kindLSRReg
	kindASRReg
	kindADC
	kindSBC
	kindROR
	kindTST
	kindNEG
	kindCMPReg
	kindCMN
	kindORR
	kindMUL
	kindBIC
	kindMVN

	// Special data and branch/exchange.
	kindADDHi
	kindCMPHi
	kindMOVHi
	kindBXBLX

	// Loads and stores.
	kindLDRLit
	kindSTRReg
	kindSTRHReg
	kindSTRBReg
	kindLDRSBReg
	kindLDRReg
	kindLDRHReg
	kindLDRBReg
	kindLDRSHReg
	kindSTRImm
	kindLDRImm
	kindSTRBImm
	kindLDRBImm
	kindSTRHImm
	kindLDRHImm
	kindSTRSP
	kindLDRSP

	// Address generation.
	kindADR
	kindADDSPImm

	// Miscellaneous.
	kindADDSP7
	kindSUBSP7
	kindSXTH
	kindSXTB
	kindUXTH
	kindUXTB
	kindPUSH
	kindPOP
	kindREV
	kindREV16
	kindREVSH
	kindBKPT
	kindNOPHint
	kindCPS

	// Multiple load/store.
	kindLDM
	kindSTM

	// Branches and system.
	kindBCond
	kindSVC
	kindB
	kindBL
	kindSYS32

	// PC-relative literal load whose absolute address (precomputed into
	// Imm at fill time — the cache is indexed by pc, so the record may be
	// pc-specific) lies inside the CPU's TEXT window; see SetTextWindow.
	kindLDRLitText

	// Anything else: its micro-op (fopUndef) raises ErrUndefined worded
	// for the encoding (undefined); Raw is the first halfword, and Imm the
	// second for a 32-bit encoding.
	kindUndef
)

// DecodedInsn is one predecoded instruction: opcode kind plus the register
// fields and pre-shifted/sign-extended immediate the executor needs. The
// record is 12 bytes so the full 256 KB address space costs 1.5 MB per CPU.
type DecodedInsn struct {
	Kind uint8
	Rd   uint8  // destination / first operand register (or condition code)
	Rn   uint8  // base register (or pre-counted register-list population)
	Rm   uint8  // second operand register
	Raw  uint16 // PUSH/POP/LDM/STM register mask (bit i = R[i]); else the halfword
	Imm  uint32 // pre-scaled immediate or sign-extended branch offset
}

// DecodeCache is the per-image predecode table: one slot per halfword of
// main memory, filled on first execution.
type DecodeCache struct {
	tab []DecodedInsn
	// maxSlot is the highest slot ever decoded (-1 while empty). Writes
	// above it cannot overlap a cached entry, so for the common case — a
	// data store far above the text region — Invalidate is one compare,
	// and a whole-memory reset clears only the slots that were ever
	// filled instead of the full table. Fused-run discovery scans ahead of
	// execution through decode, so the watermark also covers every
	// slot a run spans — including lookahead slots never reached by the
	// single-step path.
	maxSlot int

	// Superinstruction fusion state (fuse.go). runTab maps a head slot to
	// its translated run: 0 unexamined, -1 unfusable, >0 an index+1 into
	// runs. Runs reference windows of the shared ops arena. runCover has
	// one bit per 16 slots, set when any run covers a slot in the group:
	// ccc images place mutable globals directly after text, so without it
	// every global store would walk the backward head window below —
	// rebuilding adjacent runs forever. Bits are only cleared wholesale
	// (flushRuns), so a set bit means "maybe covered", never the reverse.
	runTab   []int32
	runs     []fusedRun
	ops      []fusedOp
	runCover []uint64
	fuse     bool

	// Shared-image freeze state (shared.go). A frozen cache is immutable —
	// safe for any number of concurrently executing CPUs — so every lazy
	// mutation point (decode, buildRun, Invalidate) is guarded: undecoded
	// slots decode into the CPU's own scratch record, unexamined run heads
	// single-step, and Invalidate must never be reached (the
	// copy-on-write hook installed by AttachShared clones the cache first).
	// limitB is the freeze-time decode bound in bytes: while it is non-zero
	// no cached entry's encoded bytes may cross it, which is what makes the
	// write hook's one-compare fast path (addr >= limitB cannot touch a
	// frozen entry) sound even though globals sit directly after text.
	frozen bool
	limitB uint32
}

// NewDecodeCache returns an empty cache covering all of main memory.
func NewDecodeCache() *DecodeCache {
	return &DecodeCache{tab: make([]DecodedInsn, MemSize/2), maxSlot: -1}
}

// Invalidate clears every cached entry whose encoding may overlap the
// written byte range [addr, addr+size). The window starts one halfword
// early so a write into the trailing half of a 32-bit instruction kills it.
func (pd *DecodeCache) Invalidate(addr, size uint32) {
	if pd.frozen {
		// A frozen cache is shared between CPUs and must never mutate; the
		// copy-on-write hook (AttachShared) clones before invalidating, so
		// reaching this is a wiring bug, not a recoverable condition.
		panic("armsim: Invalidate on a frozen shared decode cache")
	}
	if size == 0 || pd.maxSlot < 0 {
		return
	}
	lo := int(addr>>1) - 1
	if lo > pd.maxSlot {
		return
	}
	if lo < 0 {
		lo = 0
	}
	hi := int((addr + size - 1) >> 1)
	if hi > pd.maxSlot {
		hi = pd.maxSlot
	}
	for i := lo; i <= hi; i++ {
		pd.tab[i].Kind = kindNone
	}
	if pd.runTab != nil {
		// Any run covering a written slot must die — including one the CPU
		// is executing right now, which re-checks its own runTab entry
		// after every store (fuse.go). The directly-written heads always
		// clear (the window is a handful of slots); the backward sweep for
		// runs whose span reaches INTO the window — up to maxRunSlots below
		// it — runs only when the coverage bitmap says a run may actually
		// cover a written slot, and then kills only runs whose span truly
		// intersects. Both filters exist for the same reason: globals live
		// immediately after text, and killing the tail runs of code on
		// every global store would rebuild them forever.
		covered := false
		for b := lo >> 4; b <= hi>>4; b++ {
			if pd.runCover[b>>6]&(1<<(uint(b)&63)) != 0 {
				covered = true
				break
			}
		}
		if covered {
			rlo := lo - maxRunSlots
			if rlo < 0 {
				rlo = 0
			}
			for h := rlo; h < lo; h++ {
				if rid := pd.runTab[h]; rid > 0 && int(pd.runs[rid-1].span) > lo-h {
					pd.runTab[h] = 0
				}
			}
		}
		for h := lo; h <= hi; h++ {
			pd.runTab[h] = 0
		}
	}
	if lo == 0 && hi == pd.maxSlot {
		pd.maxSlot = -1
		pd.flushRuns()
	}
}

// EnablePredecode attaches a fresh decode cache to the CPU and registers
// its invalidation hook on mem, which must be the memory Bus fetches come
// from. Call it once at machine construction; the cache then lives for the
// life of the CPU, surviving power-cycle rollbacks (non-volatile text is
// unchanged by them) and invalidating itself on any write that could alter
// instruction bytes.
func (c *CPU) EnablePredecode(mem *Memory) {
	c.pd = NewDecodeCache()
	mem.SetWriteHook(c.pd.Invalidate)
	c.EnableFusion()
}

// SetTextWindow marks word addresses [lo, hi) as the TEXT region for
// predecode-time load classification. The bounds are WORD addresses,
// copied verbatim from the detector's own classification
// (clank.Config.TextWords) — deriving them independently from byte bounds
// risks disagreeing at an unaligned TextEnd, where the detector rounds up
// to cover the straddling word. The window takes effect for instructions
// decoded after the call. A classified literal load still reaches the Bus
// through Load (loadTextLit) unless an installed access port serves it in
// the loop.
func (c *CPU) SetTextWindow(lo, hi uint32) { c.textLoW, c.textHiW = lo, hi }

// predecode decodes one instruction into its flat record. op2 is the
// following halfword, consulted only for 32-bit encodings. Any encoding
// outside ARMv6-M maps to kindUndef. The reference interpreter in the
// package tests decodes independently; the differential suites prove the
// two agree on every encoding, error text included.
func predecode(op, op2 uint16) DecodedInsn {
	switch {
	case op>>14 == 0b00:
		return predecodeShift(op)
	case op>>10 == 0b010000:
		// Data processing: the 16 opcodes map to 16 consecutive kinds.
		return DecodedInsn{
			Kind: kindAND + uint8(op>>6)&0xF,
			Rd:   uint8(op) & 7,
			Rm:   uint8(op>>3) & 7,
		}
	case op>>10 == 0b010001:
		d := DecodedInsn{
			Rd:  uint8(op)&7 | uint8(op>>4)&8,
			Rm:  uint8(op>>3) & 0xF,
			Raw: op,
		}
		switch (op >> 8) & 3 {
		case 0b00:
			d.Kind = kindADDHi
		case 0b01:
			d.Kind = kindCMPHi
		case 0b10:
			d.Kind = kindMOVHi
		case 0b11:
			d.Kind = kindBXBLX
		}
		return d
	case op>>11 == 0b01001:
		return DecodedInsn{Kind: kindLDRLit, Rd: uint8(op>>8) & 7, Imm: uint32(op&0xFF) * 4}
	case op>>12 == 0b0101:
		// Register-offset forms: the 8 opcodes map to consecutive kinds.
		return DecodedInsn{
			Kind: kindSTRReg + uint8(op>>9)&7,
			Rd:   uint8(op) & 7,
			Rn:   uint8(op>>3) & 7,
			Rm:   uint8(op>>6) & 7,
		}
	case op>>13 == 0b011:
		imm := uint32(op>>6) & 31
		d := DecodedInsn{Rd: uint8(op) & 7, Rn: uint8(op>>3) & 7}
		if op&(1<<12) != 0 { // byte
			d.Imm = imm
			if op&(1<<11) != 0 {
				d.Kind = kindLDRBImm
			} else {
				d.Kind = kindSTRBImm
			}
		} else {
			d.Imm = imm * 4
			if op&(1<<11) != 0 {
				d.Kind = kindLDRImm
			} else {
				d.Kind = kindSTRImm
			}
		}
		return d
	case op>>12 == 0b1000:
		d := DecodedInsn{Rd: uint8(op) & 7, Rn: uint8(op>>3) & 7, Imm: (uint32(op>>6) & 31) * 2}
		if op&(1<<11) != 0 {
			d.Kind = kindLDRHImm
		} else {
			d.Kind = kindSTRHImm
		}
		return d
	case op>>12 == 0b1001:
		d := DecodedInsn{Rd: uint8(op>>8) & 7, Imm: uint32(op&0xFF) * 4}
		if op&(1<<11) != 0 {
			d.Kind = kindLDRSP
		} else {
			d.Kind = kindSTRSP
		}
		return d
	case op>>11 == 0b10100:
		return DecodedInsn{Kind: kindADR, Rd: uint8(op>>8) & 7, Imm: uint32(op&0xFF) * 4}
	case op>>11 == 0b10101:
		return DecodedInsn{Kind: kindADDSPImm, Rd: uint8(op>>8) & 7, Imm: uint32(op&0xFF) * 4}
	case op>>12 == 0b1011:
		return predecodeMisc(op)
	case op>>12 == 0b1100:
		list := op & 0xFF
		n := popCount(int(list))
		if n == 0 {
			return DecodedInsn{Kind: kindUndef, Raw: op}
		}
		d := DecodedInsn{Rd: uint8(op>>8) & 7, Rn: uint8(n), Raw: list}
		if op&(1<<11) != 0 {
			d.Kind = kindLDM
		} else {
			d.Kind = kindSTM
		}
		return d
	case op>>12 == 0b1101:
		cond := uint8(op>>8) & 0xF
		switch cond {
		case 0xE:
			return DecodedInsn{Kind: kindUndef, Raw: op}
		case 0xF:
			return DecodedInsn{Kind: kindSVC, Raw: op}
		}
		off := int32(int8(op&0xFF)) * 2
		return DecodedInsn{Kind: kindBCond, Rd: cond, Imm: uint32(off)}
	case op>>11 == 0b11100:
		off := int32(op&0x7FF) << 21 >> 20
		return DecodedInsn{Kind: kindB, Imm: uint32(off)}
	case is32(op):
		return predecode32(op, op2)
	}
	return DecodedInsn{Kind: kindUndef, Raw: op}
}

func predecodeShift(op uint16) DecodedInsn {
	switch {
	case op>>11 == 0b00000:
		return DecodedInsn{Kind: kindLSLImm, Rd: uint8(op) & 7, Rm: uint8(op>>3) & 7, Imm: uint32(op>>6) & 31}
	case op>>11 == 0b00001:
		return DecodedInsn{Kind: kindLSRImm, Rd: uint8(op) & 7, Rm: uint8(op>>3) & 7, Imm: uint32(op>>6) & 31}
	case op>>11 == 0b00010:
		return DecodedInsn{Kind: kindASRImm, Rd: uint8(op) & 7, Rm: uint8(op>>3) & 7, Imm: uint32(op>>6) & 31}
	case op>>9 == 0b0001100:
		return DecodedInsn{Kind: kindADDReg, Rd: uint8(op) & 7, Rn: uint8(op>>3) & 7, Rm: uint8(op>>6) & 7}
	case op>>9 == 0b0001101:
		return DecodedInsn{Kind: kindSUBReg, Rd: uint8(op) & 7, Rn: uint8(op>>3) & 7, Rm: uint8(op>>6) & 7}
	case op>>9 == 0b0001110:
		return DecodedInsn{Kind: kindADDImm3, Rd: uint8(op) & 7, Rn: uint8(op>>3) & 7, Imm: uint32(op>>6) & 7}
	case op>>9 == 0b0001111:
		return DecodedInsn{Kind: kindSUBImm3, Rd: uint8(op) & 7, Rn: uint8(op>>3) & 7, Imm: uint32(op>>6) & 7}
	case op>>11 == 0b00100:
		return DecodedInsn{Kind: kindMOVImm, Rd: uint8(op>>8) & 7, Imm: uint32(op & 0xFF)}
	case op>>11 == 0b00101:
		return DecodedInsn{Kind: kindCMPImm, Rd: uint8(op>>8) & 7, Imm: uint32(op & 0xFF)}
	case op>>11 == 0b00110:
		return DecodedInsn{Kind: kindADDImm8, Rd: uint8(op>>8) & 7, Imm: uint32(op & 0xFF)}
	}
	// op>>11 == 0b00111 is the only remaining pattern.
	return DecodedInsn{Kind: kindSUBImm8, Rd: uint8(op>>8) & 7, Imm: uint32(op & 0xFF)}
}

func predecodeMisc(op uint16) DecodedInsn {
	switch {
	case op>>7 == 0b101100000:
		return DecodedInsn{Kind: kindADDSP7, Imm: uint32(op&0x7F) * 4}
	case op>>7 == 0b101100001:
		return DecodedInsn{Kind: kindSUBSP7, Imm: uint32(op&0x7F) * 4}
	case op>>6 == 0b1011001000:
		return DecodedInsn{Kind: kindSXTH, Rd: uint8(op) & 7, Rm: uint8(op>>3) & 7}
	case op>>6 == 0b1011001001:
		return DecodedInsn{Kind: kindSXTB, Rd: uint8(op) & 7, Rm: uint8(op>>3) & 7}
	case op>>6 == 0b1011001010:
		return DecodedInsn{Kind: kindUXTH, Rd: uint8(op) & 7, Rm: uint8(op>>3) & 7}
	case op>>6 == 0b1011001011:
		return DecodedInsn{Kind: kindUXTB, Rd: uint8(op) & 7, Rm: uint8(op>>3) & 7}
	case op>>9 == 0b1011010:
		// The list's M bit names LR: Raw holds the full register mask.
		list := op&0xFF | (op&0x100)<<(LR-8)
		if list == 0 {
			return DecodedInsn{Kind: kindUndef, Raw: op}
		}
		return DecodedInsn{Kind: kindPUSH, Rn: uint8(popCount(int(list))), Raw: list}
	case op>>9 == 0b1011110:
		// The list's P bit names PC.
		list := op&0xFF | (op&0x100)<<(PC-8)
		if list == 0 {
			return DecodedInsn{Kind: kindUndef, Raw: op}
		}
		return DecodedInsn{Kind: kindPOP, Rn: uint8(popCount(int(list))), Raw: list}
	case op>>6 == 0b1011101000:
		return DecodedInsn{Kind: kindREV, Rd: uint8(op) & 7, Rm: uint8(op>>3) & 7}
	case op>>6 == 0b1011101001:
		return DecodedInsn{Kind: kindREV16, Rd: uint8(op) & 7, Rm: uint8(op>>3) & 7}
	case op>>6 == 0b1011101011:
		return DecodedInsn{Kind: kindREVSH, Rd: uint8(op) & 7, Rm: uint8(op>>3) & 7}
	case op>>8 == 0b10111110:
		return DecodedInsn{Kind: kindBKPT, Raw: op}
	case op>>8 == 0b10111111:
		// NOP and the other hints (YIELD/WFE/WFI/SEV) are all no-ops.
		return DecodedInsn{Kind: kindNOPHint, Raw: op}
	case op>>5 == 0b10110110011:
		return DecodedInsn{Kind: kindCPS, Imm: uint32(op & 0x10)}
	}
	return DecodedInsn{Kind: kindUndef, Raw: op}
}

func predecode32(op, op2 uint16) DecodedInsn {
	// BL: 11110 S imm10 : 11 J1 1 J2 imm11 (checked before the system
	// encodings).
	if op>>11 == 0b11110 && op2>>14 == 0b11 && op2&(1<<12) != 0 {
		s := uint32(op>>10) & 1
		imm10 := uint32(op) & 0x3FF
		j1 := uint32(op2>>13) & 1
		j2 := uint32(op2>>11) & 1
		imm11 := uint32(op2) & 0x7FF
		i1 := ^(j1 ^ s) & 1
		i2 := ^(j2 ^ s) & 1
		imm := s<<24 | i1<<23 | i2<<22 | imm10<<12 | imm11<<1
		off := int32(imm<<7) >> 7
		return DecodedInsn{Kind: kindBL, Imm: uint32(off)}
	}
	// DMB/DSB/ISB and MSR/MRS: decoded loosely, executed as no-ops.
	if op>>4 == 0b111100111011 || op>>4 == 0b111100111000 || op>>4 == 0b111100111110 {
		return DecodedInsn{Kind: kindSYS32, Raw: op}
	}
	return DecodedInsn{Kind: kindUndef, Raw: op, Imm: uint32(op2)}
}

// SetAccessPort installs a detector's access port on the memory path.
// While installed, the executor completes these accesses in the loop
// instead of calling the Bus, each counting one access in *p.Accesses:
//
//   - a load whose word p.Read certifies, and a store whose word p.Write
//     certifies, then read or write mem exactly as the bus would;
//   - a load or store of a word p's index places in a dirty Write-back slot
//     (p.WriteBack): the load returns the slot's lane (WordLane of Val), the
//     store merges its lane into Val (MergeLane) — mem is not touched and
//     its write hook does not fire;
//   - a store of a word in a clean Write-back slot whose merged word (mem's
//     word with the stored lane replaced) equals the slot's Val — a false
//     write — then writes mem exactly as the bus would;
//   - a TEXT literal load (kindLDRLitText) reads the word;
//   - on a port whose p.Complete is set and true, a load of a word p's
//     index does not name reads mem.
//
// A port without tag arrays (p.Read and p.Write nil, as a privatizing
// write buffer's) makes no filter probe and completes no clean-slot false
// write. Under a reference monitor (p.Certs non-nil) each completed access
// the monitor would see needs its certificate too: every load that reads
// mem needs p.Certs.Tracked, a filter store hit needs p.Certs.WriteDom, and
// clean-slot false writes take the Bus. Every other access
// — filter and index misses, loads of clean slots, clean-slot stores that
// change the word, addresses outside main memory, stores straddling its
// top — still takes the Bus.
//
// Installing a port is the bus owner's promise that for those kinds the
// Bus would do exactly that and nothing else: no veto, no Yield, no
// failure hook, and no monitor report the monitor's certificates do not
// make a no-op, with mem its backing store. The intermittent machine
// installs its scheme's port (scheme.Ported) whenever no FailAfterAccess
// hook observes accesses, with its monitor's certificates under Verify.
func (c *CPU) SetAccessPort(p accfilter.Port, mem *Memory) { c.port, c.portMem = p, mem }

// AccessPort returns the installed access port (zero when none).
func (c *CPU) AccessPort() accfilter.Port { return c.port }

// pdLoad is the executor's data-load path. Every load takes the Bus except
// those an installed access port certifies (SetAccessPort): a filter hit
// or an unindexed word of a complete index reads memory, a dirty
// Write-back word its slot. An unaligned address faults first, before any
// path reads memory or counts an access.
func (c *CPU) pdLoad(addr uint32, size uint8, pc uint32) (uint32, error) {
	if addr&(uint32(size)-1) != 0 {
		return 0, unaligned("load", addr, size, pc)
	}
	w := addr >> 2
	if t := c.port.Read; t != nil && addr < MemSize && t.Hit(w) && c.monRead(w) {
		*c.port.Accesses++
		return WordLane(c.portMem.ReadWord(addr), addr, size), nil
	}
	if c.port.Index != nil && addr < MemSize {
		kind, slot, live := c.port.Index.Lookup(w, *c.port.Epoch)
		switch {
		case live && kind == accfilter.KindWBD:
			*c.port.Accesses++
			return WordLane(c.port.Slots[slot].Val, addr, size), nil
		case !live && c.port.Complete != nil && *c.port.Complete && c.monRead(w):
			*c.port.Accesses++
			return WordLane(c.portMem.ReadWord(addr), addr, size), nil
		}
	}
	return c.Bus.Load(addr, size, pc)
}

// monRead reports whether the installed port's reference monitor, if it
// has one, certifies a read of word: it already tracks the word, so the
// Bus's report would change nothing.
func (c *CPU) monRead(word uint32) bool {
	return c.port.Certs == nil || c.port.Certs.Tracked.Hit(word)
}

// monWrite is monRead for a write: the monitor, if any, holds word as
// write-dominated.
func (c *CPU) monWrite(word uint32) bool {
	return c.port.Certs == nil || c.port.Certs.WriteDom.Hit(word)
}

// pdStore is pdLoad's store counterpart. The access port's direct writes
// (storeRAM, for a filter hit or a clean Write-back false write) perform
// exactly what Memory.Store would — including firing the write hook, so
// text-region stores still invalidate the decode cache. A store to a dirty
// Write-back word only merges into its slot, as the bus's buffered store
// does. An unaligned address faults first, as in pdLoad.
func (c *CPU) pdStore(addr uint32, size uint8, v uint32, pc uint32) error {
	if addr&(uint32(size)-1) != 0 {
		return unaligned("store", addr, size, pc)
	}
	if t := c.port.Write; t != nil && addr < MemSize-3 && t.Hit(addr>>2) && c.monWrite(addr>>2) {
		*c.port.Accesses++
		c.portMem.storeRAM(addr, size, v)
		return nil
	}
	if c.port.Index != nil && addr < MemSize-3 && c.portStoreWB(addr, size, v) {
		return nil
	}
	return c.Bus.Store(addr, size, v, pc)
}

// portStoreWB completes a store the access port's Write-back slots
// certify (SetAccessPort): a dirty word's lane merges into its slot, and —
// on a port with filter tag arrays and no monitor — a false write to a
// clean word stores to memory. It reports false, having done nothing, for
// every other store.
func (c *CPU) portStoreWB(addr uint32, size uint8, v uint32) bool {
	s := c.port.WriteBack(addr >> 2)
	switch {
	case s == nil:
		return false
	case s.Dirty:
		s.Val = MergeLane(s.Val, addr, size, v)
	case c.port.Write != nil && c.port.Certs == nil &&
		MergeLane(c.portMem.ReadWord(addr), addr, size, v) == s.Val:
		c.portMem.storeRAM(addr, size, v)
	default:
		return false
	}
	*c.port.Accesses++
	return true
}

// loadTextLit serves a literal-pool load the predecoder proved lies inside
// the TEXT window: in the loop when an access port is installed (every
// scheme's verdict for a TEXT read is statically Outcome{}) and its
// monitor, if any, certifies the word; through the Bus otherwise.
func (c *CPU) loadTextLit(addr, pc uint32) (uint32, error) {
	if c.port.Index != nil && c.monRead(addr>>2) {
		*c.port.Accesses++
		return c.portMem.ReadWord(addr), nil
	}
	return c.Bus.Load(addr, 4, pc)
}

// storeMulti stores the registers in list (bit i = R[i]) to consecutive
// words from addr, lowest register first, and returns the address after the
// last word. It stops at the first failing store: the stores before it stay
// in memory (re-execution rewrites the same values, see DESIGN.md) and the
// caller skips its base-register writeback. The PUSH/STM micro-ops' body.
func (c *CPU) storeMulti(addr, list, pc uint32) (uint32, error) {
	for l := list; l != 0; l &= l - 1 {
		if err := c.pdStore(addr, 4, c.R[bits.TrailingZeros32(l)&15], pc); err != nil {
			return 0, err
		}
		addr += 4
	}
	return addr, nil
}

// loadMulti loads consecutive words from addr into the registers in list
// (bit i = R[i]; a PC bit leaves the raw popped value in R[PC] for the
// caller to turn into the next pc) and returns the address after the last
// word. Every load happens before any register is written, so a failing
// load leaves the register file unchanged. The POP/LDM micro-ops' body.
func (c *CPU) loadMulti(addr, list, pc uint32) (uint32, error) {
	var vals [16]uint32
	for l := list; l != 0; l &= l - 1 {
		v, err := c.pdLoad(addr, 4, pc)
		if err != nil {
			return 0, err
		}
		vals[bits.TrailingZeros32(l)&15] = v
		addr += 4
	}
	for l := list; l != 0; l &= l - 1 {
		r := bits.TrailingZeros32(l) & 15
		c.R[r] = vals[r]
	}
	return addr, nil
}

// unaligned is the error a data access of size bytes at a misaligned addr
// raises. No engine lets it touch memory, the bus or the detector, so a
// halfword or word never straddles two words. It stays out of line so
// that the error's construction does not weigh on pdLoad/pdStore.
//
//go:noinline
func unaligned(op string, addr uint32, size uint8, pc uint32) error {
	return fmt.Errorf("%w: %s%d at %#x (pc %#x)", ErrUnaligned, op, size*8, addr, pc)
}

// undefined is the error a kindUndef record raises at pc, worded by
// encoding class: the UDF opcode, an empty register list, a 32-bit pair (op2
// is its second halfword as fetched at decode time), or any other halfword.
func undefined(op, op2 uint16, pc uint32) error {
	switch {
	case op>>12 == 0b1101:
		return fmt.Errorf("%w: UDF %#04x at %#x", ErrUndefined, op, pc)
	case op>>9 == 0b1011010:
		return fmt.Errorf("%w: empty PUSH at %#x", ErrUndefined, pc)
	case op>>9 == 0b1011110:
		return fmt.Errorf("%w: empty POP at %#x", ErrUndefined, pc)
	case op>>12 == 0b1100:
		return fmt.Errorf("%w: empty LDM/STM at %#x", ErrUndefined, pc)
	case is32(op):
		return fmt.Errorf("%w: 32-bit %#04x %#04x at %#x", ErrUndefined, op, op2, pc)
	}
	return fmt.Errorf("%w: %#04x at %#x", ErrUndefined, op, pc)
}

// is32 reports whether op is the first halfword of a 32-bit encoding.
func is32(op uint16) bool { return op>>11 >= 0b11101 }

// decode is the cache's miss path: it fetches the instruction at pc and
// predecodes it. slot is pc's empty cache slot, nil when pc has none (no
// cache, or pc outside main memory). The record goes into slot when the
// cache may hold it, and otherwise into the CPU-local scratch record
// c.miss: no slot, a frozen shared cache, or an encoding crossing the
// freeze-build bound limitB. A frozen cache is therefore never written. A
// cached literal load whose word lies in the TEXT window (SetTextWindow)
// becomes kindLDRLitText; the scratch record is never classified, and both
// kinds read the same word through the same Bus.Load. A fetch fault on
// either halfword is returned unchanged; nothing is cached.
func (c *CPU) decode(slot *DecodedInsn, pc uint32) (*DecodedInsn, error) {
	op, err := c.Bus.Fetch16(pc)
	if err != nil {
		return nil, err
	}
	var op2 uint16
	end := pc + 2
	if is32(op) {
		if op2, err = c.Bus.Fetch16(pc + 2); err != nil {
			return nil, err
		}
		end = pc + 4
	}
	// Freeze-build bound (shared.go): while limitB is set, no cached
	// encoding may reach past it. The frozen cache's write hook skips
	// invalidation for addr >= limitB with a single compare, which is only
	// sound if no cached encoding crosses the line.
	pd := c.pd
	if slot == nil || pd.frozen || (pd.limitB != 0 && end > pd.limitB) {
		c.miss = predecode(op, op2)
		return &c.miss, nil
	}
	*slot = predecode(op, op2)
	// Pre-classify literal loads against the TEXT window: the literal's
	// address depends only on pc, which the cache slot fixes, so the
	// classification is as immutable as the decode itself. (Text-region
	// stores invalidate the slot through the write hook like any other
	// entry; the refill reclassifies to the same verdict.)
	if slot.Kind == kindLDRLit {
		if addr := ((pc + 4) &^ 3) + slot.Imm; addr>>2 >= c.textLoW && addr>>2 < c.textHiW {
			*slot = DecodedInsn{Kind: kindLDRLitText, Rd: slot.Rd, Imm: addr}
		}
	}
	if i := int(pc >> 1); i > pd.maxSlot {
		pd.maxSlot = i
	}
	return slot, nil
}
