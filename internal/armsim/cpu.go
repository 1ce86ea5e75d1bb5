package armsim

import (
	"errors"

	"repro/internal/accfilter"
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
	// ErrUnaligned is returned for a halfword or word data access whose
	// address is not a multiple of its size: ARMv6-M raises a HardFault.
	ErrUnaligned = errors.New("armsim: unaligned access")
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
	// every Step decodes through the miss path.
	pd *DecodeCache
	// miss is the miss path's scratch record (decode): an instruction the
	// cache cannot hold is decoded here and executed once.
	miss DecodedInsn
	// step and stepOp are Step's scratch run: the instruction at PC
	// translated into one micro-op, executed by execRun as run 0. Like
	// miss, they are CPU-local, so a frozen shared cache is never written.
	step   fusedRun
	stepOp [1]fusedOp
	// TEXT window for predecode-time literal-load classification
	// (SetTextWindow): word-address bounds [textLoW, textHiW).
	textLoW, textHiW uint32

	// port, when port.Read is non-nil, is a detector's access filter
	// (SetAccessPort): the executor completes the accesses it
	// certifies, and TEXT literal loads, against portMem without a Bus
	// call.
	port    accfilter.Port
	portMem *Memory

	// yield is set by Yield during a bus access and read by execRun after
	// each access micro-op (see Yield).
	yield bool
}

// Yield asks the fused engine to return to its caller at the instruction
// boundary after the instruction whose memory access is in progress. A
// monitored bus calls it from inside Load or Store when its driver
// must act at that boundary — an output that needs a trailing checkpoint,
// an injected power cut — so fused runs can otherwise span monitored
// accesses without hiding the boundary. A Step already returns after one
// instruction, so there the request is moot.
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

func signExt8(v uint32) uint32  { return uint32(int32(int8(v))) }
func signExt16(v uint32) uint32 { return uint32(int32(int16(v))) }

func (c *CPU) setNZ(v uint32) {
	c.N = v&0x80000000 != 0
	c.Z = v == 0
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
// The instruction comes from the predecode cache, indexed by halfword
// address and decoded on first execution only. An instruction the cache
// cannot hold goes through the same decoder on the miss path (decode): PC
// outside main memory, a CPU without a cache, a frozen shared cache's empty
// slot, or a 32-bit encoding whose second halfword faults. Either way Step
// translates it into its scratch micro-op with every flag live and runs
// that as a run of length one with a budget of one cycle, so it executes
// through the fused engine's handlers (execRun) and stops after exactly
// the one instruction.
func (c *CPU) Step() error {
	if c.Halt {
		return ErrHalted
	}
	pc := c.R[PC]
	var d *DecodedInsn
	if c.pd != nil && pc < MemSize {
		// The mask is a no-op given pc < MemSize; it lets the compiler
		// drop the slice bounds check on the hottest load in the simulator.
		d = &c.pd.tab[(pc>>1)&(MemSize/2-1)]
	}
	if d == nil || d.Kind == kindNone {
		var err error
		if d, err = c.decode(d, pc); err != nil {
			return err
		}
	}
	translate(&c.stepOp[0], d, pc, true)
	c.step.endPC = pc + insnBytes(d)
	return c.execRun(0, 1)
}

// RunTo executes instructions until Halt (ErrHalted), another error, or
// Cycle reaching maxCycles (nil): StepFused with the remaining cycles as
// its budget, until they are spent. It is what Machine.Run drives.
func (c *CPU) RunTo(maxCycles uint64) error {
	for c.Cycle < maxCycles {
		if err := c.StepFused(maxCycles - c.Cycle); err != nil {
			return err
		}
	}
	return nil
}

// StepFused advances execution by at most budget cycles' worth of
// instructions: whole fused runs while the budget covers each run's
// worst-case cost, or — when the next run no longer fits, no run covers PC,
// fusion is disabled, or PC is outside memory — exactly one Step. Budget
// stops therefore land on block boundaries, the only points where lazily
// skipped flags are guaranteed materialized; near a boundary event the tail
// instructions step one at a time, so the intermittent run loop's power,
// watchdog, and wall-clock decisions fire at byte-identical points to
// stepping every instruction. At least one instruction executes regardless
// of budget, exactly like Step.
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
