package armsim

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/accfilter"
)

// The superinstruction layer (fuse.go) must be architecturally invisible:
// same registers, flags, cycle counts, retired-instruction counts, memory,
// outputs, and errors as the reference interpreter (reference_test.go) for
// every program at every budget. These tests drive StepFused against the
// reference's stepRef with
// resynchronization on retired-instruction count: one StepFused call may
// retire a whole block — or several instructions even at budget 1, when a
// folded constant chain retires as a single micro-op — so the reference
// catches up to the same Insns and the full state is compared at every
// synchronization point. This extends the differential methodology of
// predecode_test.go (which pins Step, a run of length one) to whole fused
// runs.

// fusedPair is two machines with identical memories: ref executes through
// the reference interpreter, fus through the fused superinstruction engine.
type fusedPair struct {
	ref *Machine // reference fetch+decode switch: the ground truth
	fus *Machine // predecode + fusion, the default NewMachine configuration

	// Monitored (strict-mode) pairs only: each machine's bus, plus counts
	// proving the monitored run exercised what it claims to — accesses
	// retired before the end of a StepFused call, yields that stopped a
	// call after more than one instruction, and vetoes that landed after
	// earlier instructions of the same call had retired.
	refBus, fusBus                  *monitorBus
	spanned, yieldStops, lateVetoes int
}

func newFusedPair(t testing.TB) *fusedPair {
	t.Helper()
	p := &fusedPair{ref: newRefMachine(), fus: NewMachine()}
	if !p.fus.CPU.FusionEnabled() {
		t.Fatal("fusion not enabled by default on NewMachine")
	}
	return p
}

// newMonitoredPair is newFusedPair with both machines behind a monitorBus,
// which puts the fused engine in strict mode.
func newMonitoredPair(t testing.TB) *fusedPair {
	t.Helper()
	p := &fusedPair{}
	p.ref, p.refBus = newMonitoredMachine(false)
	p.fus, p.fusBus = newMonitoredMachine(true)
	if !p.fus.CPU.FusionEnabled() || !p.fus.CPU.pd.strict {
		t.Fatal("monitored machine is not fusing in strict mode")
	}
	return p
}

func newMonitoredMachine(predecode bool) (*Machine, *monitorBus) {
	mem := NewMemory()
	bus := &monitorBus{mem: mem, record: true, yieldAt: -1}
	cpu := NewCPU(bus)
	bus.cpu = cpu
	if predecode {
		cpu.EnablePredecode(mem)
	}
	return &Machine{CPU: cpu, Mem: mem}, bus
}

// errTestVeto is monitorBus's veto. Like the intermittent machine's
// checkpoint request it aborts the access with no effect, and the driver
// retries the instruction.
var errTestVeto = errors.New("armsim test: access vetoed")

// accessRec is one data access as a monitorBus saw it, stamped with the
// CPU's cycle counter at that moment.
type accessRec struct {
	addr, val, pc uint32
	cycle         uint64
	size          uint8
	store, vetoed bool
}

// monitorBus is a monitored bus over a Memory. It decides per access
// ordinal whether to veto the access or to call Yield after it — through
// rule when set, a fixed hash otherwise — so two machines seeing the same
// access stream make the same decisions. With record set it logs every
// access; yieldAt is the log index of the first access that yielded since
// the caller last reset it to -1.
type monitorBus struct {
	mem     *Memory
	cpu     *CPU
	rule    func(ordinal uint32) (veto, yield bool)
	ordinal uint32
	record  bool
	log     []accessRec
	yieldAt int
}

func (b *monitorBus) decide() (veto, yield bool) {
	n := b.ordinal
	b.ordinal++
	if b.rule != nil {
		return b.rule(n)
	}
	h := (n * 0x9E3779B1) >> 24
	return h%13 == 0, h%3 == 1
}

func (b *monitorBus) access(rec accessRec, yield bool) {
	if yield {
		if b.yieldAt < 0 {
			b.yieldAt = len(b.log)
		}
		b.cpu.Yield()
	}
	if b.record {
		b.log = append(b.log, rec)
	}
}

func (b *monitorBus) Load(addr uint32, size uint8, pc uint32) (uint32, error) {
	veto, yield := b.decide()
	rec := accessRec{addr: addr, pc: pc, cycle: b.cpu.Cycle, size: size, vetoed: veto}
	if veto {
		b.access(rec, false)
		return 0, errTestVeto
	}
	v, err := b.mem.Load(addr, size, pc)
	rec.val = v
	b.access(rec, yield && err == nil)
	return v, err
}

func (b *monitorBus) Store(addr uint32, size uint8, v uint32, pc uint32) error {
	veto, yield := b.decide()
	rec := accessRec{addr: addr, val: v, pc: pc, cycle: b.cpu.Cycle, size: size, store: true, vetoed: veto}
	if veto {
		b.access(rec, false)
		return errTestVeto
	}
	err := b.mem.Store(addr, size, v, pc)
	b.access(rec, yield && err == nil)
	return err
}

func (b *monitorBus) Fetch16(addr uint32) (uint16, error) { return b.mem.Fetch16(addr) }

// seed sets both CPUs to the same pseudo-random-but-valid state (the
// predecode_test.go recipe: some in-RAM pointers so loads and stores
// frequently succeed, LCG noise elsewhere, flags from the seed's low bits).
func (p *fusedPair) seed(seed, pc uint32) {
	for _, c := range []*CPU{p.ref.CPU, p.fus.CPU} {
		s := seed
		for i := 0; i < 16; i++ {
			s = s*1664525 + 1013904223
			c.R[i] = s
		}
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
		c.Insns = 0
	}
}

// writeProgram places the opcodes at addr on both machines through
// WriteWord, so the decode caches and fused runs invalidate.
func (p *fusedPair) writeProgram(addr uint32, ops []uint16) {
	if len(ops)%2 != 0 {
		ops = append(ops[:len(ops):len(ops)], opBKPT)
	}
	for i := 0; i < len(ops); i += 2 {
		w := uint32(ops[i]) | uint32(ops[i+1])<<16
		p.ref.Mem.WriteWord(addr+uint32(i)*2, w)
		p.fus.Mem.WriteWord(addr+uint32(i)*2, w)
	}
}

// sync advances the fused machine by one StepFused call, catches the
// reference up to the same retired-instruction count, and compares the
// architectural state. Errors never retire the faulting instruction on
// either path (its PC and state stay untouched), so a fused error means the
// reference's next step must fail with the identical error.
//
// On a monitored pair it also checks the bus-visible contract: both buses
// saw the identical access stream (so the fused engine skipped and repeated
// no access, and flushed Cycle before each), and a yield stopped the fused
// call right after the yielding instruction.
func (p *fusedPair) sync(t *testing.T, budget uint64, label string) error {
	t.Helper()
	q, r := p.fus.CPU, p.ref.CPU
	if p.fusBus != nil {
		p.fusBus.yieldAt = -1
	}
	start := q.Insns
	errF := q.StepFused(budget)
	// last is the ref log index where the last stepped instruction's
	// accesses begin; accInsns counts stepped instructions with accesses.
	last, accInsns, lastAccessed := 0, 0, false
	step := func() error {
		if p.refBus == nil {
			return r.stepRef()
		}
		last = len(p.refBus.log)
		err := r.stepRef()
		lastAccessed = len(p.refBus.log) > last
		if lastAccessed {
			accInsns++
		}
		return err
	}
	for r.Insns < q.Insns {
		if err := step(); err != nil {
			t.Fatalf("%s: reference error %v at insn %d while catching up to %d (fused err: %v)",
				label, err, r.Insns, q.Insns, errF)
		}
	}
	retired := accInsns
	var errR error
	if errF != nil {
		errR = step()
	}
	if (errR == nil) != (errF == nil) || (errR != nil && errR.Error() != errF.Error()) {
		t.Fatalf("%s: error mismatch:\n  reference: %v\n  fused:     %v", label, errR, errF)
	}
	if p.fusBus != nil {
		p.checkMonitored(t, label, errF, q.Insns-start, last, retired, lastAccessed)
	}
	if r.Insns != q.Insns {
		t.Fatalf("%s: retired-instruction mismatch: reference %d, fused %d", label, r.Insns, q.Insns)
	}
	if r.R != q.R {
		t.Fatalf("%s: register mismatch:\n  reference: %v\n  fused:     %v", label, r.R, q.R)
	}
	if r.N != q.N || r.Z != q.Z || r.C != q.C || r.V != q.V || r.Prim != q.Prim || r.Halt != q.Halt {
		t.Fatalf("%s: flag mismatch: reference N%v Z%v C%v V%v P%v H%v, fused N%v Z%v C%v V%v P%v H%v",
			label, r.N, r.Z, r.C, r.V, r.Prim, r.Halt, q.N, q.Z, q.C, q.V, q.Prim, q.Halt)
	}
	if r.Cycle != q.Cycle {
		t.Fatalf("%s: cycle mismatch at insn %d: reference %d, fused %d", label, r.Insns, r.Cycle, q.Cycle)
	}
	return errF
}

// checkMonitored compares the two access logs of one sync and then clears
// them. insns is the number of instructions the call retired; last is the
// ref log index where the accesses of the call's final instruction (the
// failing one on error) begin; retired counts the call's retired
// instructions that accessed memory, lastAccessed whether the final one
// did.
func (p *fusedPair) checkMonitored(t *testing.T, label string, errF error, insns uint64, last, retired int, lastAccessed bool) {
	t.Helper()
	fl, rl := p.fusBus.log, p.refBus.log
	if len(fl) != len(rl) {
		t.Fatalf("%s: fused bus saw %d accesses, reference %d:\n  reference: %+v\n  fused:     %+v",
			label, len(fl), len(rl), rl, fl)
	}
	for i := range fl {
		if fl[i] != rl[i] {
			t.Fatalf("%s: access %d differs:\n  reference: %+v\n  fused:     %+v", label, i, rl[i], fl[i])
		}
	}
	if y := p.fusBus.yieldAt; y >= 0 && y < last {
		t.Fatalf("%s: StepFused ran past a yield: access %+v yielded, but the call went on to pc %#x",
			label, fl[y], p.ref.CPU.R[PC])
	}
	switch {
	case errF == nil:
		if lastAccessed {
			retired--
		}
		if p.fusBus.yieldAt >= 0 && insns > 1 {
			p.yieldStops++
		}
	case errors.Is(errF, errTestVeto) && insns > 0:
		p.lateVetoes++
	}
	p.spanned += retired
	p.fusBus.log, p.refBus.log = fl[:0], rl[:0]
}

// deepCompare additionally checks full memory contents and the output log.
func (p *fusedPair) deepCompare(t *testing.T, label string) {
	t.Helper()
	if !bytes.Equal(p.ref.Mem.Bytes(), p.fus.Mem.Bytes()) {
		t.Fatalf("%s: memory contents diverged", label)
	}
	if len(p.ref.Mem.Outputs) != len(p.fus.Mem.Outputs) {
		t.Fatalf("%s: output count mismatch: reference %d, fused %d",
			label, len(p.ref.Mem.Outputs), len(p.fus.Mem.Outputs))
	}
	for i := range p.ref.Mem.Outputs {
		if p.ref.Mem.Outputs[i] != p.fus.Mem.Outputs[i] {
			t.Fatalf("%s: output %d mismatch", label, i)
		}
	}
}

// TestFusedDifferentialAllEncodings sweeps every 16-bit encoding (with two
// second-halfword variants for the 32-bit prefixes) embedded mid-block —
// padded so the probed instruction sits inside a run rather than heading
// its own — under multiple register seeds and budgets,
// and asserts the fused engine matches the reference interpreter exactly.
func TestFusedDifferentialAllEncodings(t *testing.T) {
	p := newFusedPair(t)
	seeds := []uint32{0x1234, 0xBEEF5EED, 0x0F0F7777}
	budgets := []uint64{1, 1000, 3}
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
			for si, seed := range seeds {
				// Rewrite the whole window every case: a previous case's
				// stores may have scribbled over any part of it.
				p.writeProgram(8, []uint16{
					movImm8(6, 5), // pad: the probed op sits mid-block
					op, op2,
					addImm8(6, 1),
					opBKPT, opBKPT,
				})
				p.seed(seed, 8)
				label := fmt.Sprintf("op %#04x op2 %#04x seed %#x", op, op2, seed)
				for step := 0; step < 6; step++ {
					if p.sync(t, budgets[si%len(budgets)], label) != nil {
						break
					}
				}
				p.deepCompare(t, label)
			}
		}
	}
}

// TestFusedDifferentialRandomStreams runs randomized instruction streams
// through the fused engine with cycling budgets (mid-run boundary stops,
// chained whole-block execution, and everything between), resynchronizing
// with the reference interpreter after every StepFused call. The monitored mode
// repeats the streams on a strict-mode bus whose vetoes and yields land
// mid-run.
func TestFusedDifferentialRandomStreams(t *testing.T) {
	t.Run("loose", func(t *testing.T) { randomStreams(t, newFusedPair(t)) })
	t.Run("monitored", func(t *testing.T) {
		p := newMonitoredPair(t)
		randomStreams(t, p)
		if p.spanned == 0 || p.yieldStops == 0 || p.lateVetoes == 0 {
			t.Errorf("monitored streams exercised too little: %d accesses retired mid-call, %d yield stops, %d late vetoes",
				p.spanned, p.yieldStops, p.lateVetoes)
		}
	})
}

func randomStreams(t *testing.T, p *fusedPair) {
	const streams = 150
	s := uint32(0xFADED)
	rnd := func() uint32 {
		s = s*1664525 + 1013904223
		return s
	}
	budgets := []uint64{1, 2, 3, 5, 8, 1000}
	const streamWords = 48
	for n := 0; n < streams; n++ {
		for i := 0; i < streamWords; i++ {
			w := rnd()
			p.ref.Mem.WriteWord(8+uint32(i)*4, w)
			p.fus.Mem.WriteWord(8+uint32(i)*4, w)
		}
		p.seed(rnd(), 8)
		for step := 0; step < 300; step++ {
			label := fmt.Sprintf("stream %d step %d (pc %#x)", n, step, p.ref.CPU.R[PC])
			err := p.sync(t, budgets[step%len(budgets)], label)
			if step%16 == 15 || err != nil {
				p.deepCompare(t, label)
			}
			if err != nil && !errors.Is(err, errTestVeto) {
				break
			}
		}
	}
}

// TestFusedMonitoredYieldAndVeto walks one strict-mode run access by
// access: a run headed by a load fuses, a yield on the second load returns
// right after it, and a veto on a later store leaves PC on the store with
// the ALU work before it committed; the retried store then runs on to the
// BKPT that ends the block, which halts inside the same call.
func TestFusedMonitoredYieldAndVeto(t *testing.T) {
	m, bus := newMonitoredMachine(true)
	bus.rule = func(n uint32) (veto, yield bool) { return n == 2, n == 1 }
	if err := m.Boot(asmImage(
		uint16(0b01101<<11|0<<6|4<<3|0), //  8: LDR r0, [r4]
		uint16(0b01101<<11|1<<6|4<<3|1), // 10: LDR r1, [r4, #4]  (yields)
		addImm8(2, 1),                   // 12: ADDS r2, #1
		uint16(0b01100<<11|2<<6|4<<3|0), // 14: STR r0, [r4, #8]  (vetoed once)
		addImm8(2, 1),                   // 16: ADDS r2, #1
		opBKPT,                          // 18
	)); err != nil {
		t.Fatal(err)
	}
	c := m.CPU
	c.R[4] = 0x100
	m.Mem.WriteWord(0x100, 7)
	m.Mem.WriteWord(0x104, 9)
	type want struct {
		err         error
		pc, r2      uint32
		insns       uint64
		cycle       uint64
		description string
	}
	for i, w := range []want{
		{nil, 12, 0, 2, 4, "yield after the second load"},
		{errTestVeto, 14, 1, 3, 5, "veto leaves PC on the store"},
		{ErrHalted, 18, 2, 5, 8, "retried store runs on to the block's BKPT"},
	} {
		err := c.StepFused(1000)
		if !errors.Is(err, w.err) || c.R[PC] != w.pc || c.Insns != w.insns ||
			c.R[2] != w.r2 || c.Cycle != w.cycle {
			t.Fatalf("call %d (%s): err %v pc %d insns %d r2 %d cycle %d; want err %v pc %d insns %d r2 %d cycle %d",
				i, w.description, err, c.R[PC], c.Insns, c.R[2], c.Cycle, w.err, w.pc, w.insns, w.r2, w.cycle)
		}
		if i == 0 && c.pd.runTab[8>>1] <= 0 {
			t.Fatal("run headed by a load was not fused")
		}
	}
	if got := m.Mem.ReadWord(0x108); got != 7 {
		t.Errorf("stored word = %d, want 7", got)
	}
}

// TestFusedMonitoredYieldAndVetoMultiTransfer runs each multi-register
// transfer mid-run on a strict-mode bus and vetoes, then yields, at every
// access ordinal k of the transfer. After every StepFused the full state —
// registers (SP and PC included), flags, Cycle, Insns, the bus log with its
// cycle stamps, and all of memory — must equal the reference's at the
// same instruction count. The first call must also stop where the contract
// puts it: on a veto, at the transfer with only the ALU op before it
// retired; on a yield, right after the whole transfer (at the popped
// address for POP with PC, without chaining into the run there).
func TestFusedMonitoredYieldAndVetoMultiTransfer(t *testing.T) {
	const stackData, popTarget = 0x200, 24
	cases := []struct {
		name     string
		op       uint16
		accesses uint32
		after    uint32 // pc once the transfer has completed
	}{
		{"push_r0-r2_lr", 0xB507, 4, 12},
		{"pop_r0-r2_pc", 0xBD07, 4, popTarget},
		{"stm_r4!_r0-r2", 0xC407, 3, 12},
		{"ldm_r4!_r0-r2", 0xCC07, 3, 12},   // base outside the list: writeback
		{"ldm_r4_r2_r4_r5", 0xCC34, 3, 12}, // base in the list: no writeback
	}
	for _, tc := range cases {
		for _, yield := range []bool{false, true} {
			for k := uint32(0); k < tc.accesses; k++ {
				label := fmt.Sprintf("%s veto at access %d", tc.name, k)
				if yield {
					label = fmt.Sprintf("%s yield at access %d", tc.name, k)
				}
				p := newMonitoredPair(t)
				p.writeProgram(8, []uint16{
					addImm8(6, 1), //  8
					tc.op,         // 10: the transfer under test
					addImm8(6, 1), // 12
					addImm8(6, 1), // 14
					opBKPT, opBKPT, opBKPT, opBKPT,
					addImm8(6, 1), // 24: POP's return address
					addImm8(7, 1), // 26
					opBKPT,        // 28
				})
				p.seed(0xC0FFEE+k, 8)
				for _, m := range []*Machine{p.ref, p.fus} {
					m.CPU.R[4] = stackData
					sp := m.CPU.R[SP]
					for i := uint32(0); i < 3; i++ {
						m.Mem.WriteWord(sp+4*i, 0x1111*(i+1))
						m.Mem.WriteWord(stackData+4*i, 0x2222*(i+1))
					}
					m.Mem.WriteWord(sp+12, popTarget|1)
				}
				rule := func(n uint32) (bool, bool) { return !yield && n == k, yield && n == k }
				p.refBus.rule, p.fusBus.rule = rule, rule
				err := p.sync(t, 1000, label)
				p.deepCompare(t, label)
				q := p.fus.CPU
				if q.pd.runTab[8>>1] <= 0 {
					t.Fatalf("%s: the run holding the transfer was not fused", label)
				}
				switch {
				case !yield && (!errors.Is(err, errTestVeto) || q.R[PC] != 10 || q.Insns != 1):
					t.Fatalf("%s: err %v pc %d insns %d; want the veto with pc 10 after 1 insn", label, err, q.R[PC], q.Insns)
				case yield && (err != nil || q.R[PC] != tc.after || q.Insns != 2):
					t.Fatalf("%s: err %v pc %d insns %d; want a stop at pc %d after 2 insns", label, err, q.R[PC], q.Insns, tc.after)
				}
				for step := 0; err == nil || errors.Is(err, errTestVeto); step++ {
					if step == 8 {
						t.Fatalf("%s: no halt after %d more calls", label, step)
					}
					err = p.sync(t, 1000, label)
					p.deepCompare(t, label)
				}
				if !errors.Is(err, ErrHalted) {
					t.Fatalf("%s: stopped with %v, want a halt", label, err)
				}
			}
		}
	}
}

// hw renders opcodes as little-endian bytes for fuzz corpus entries.
func hw(ops ...uint16) []byte {
	b := make([]byte, 2*len(ops))
	for i, op := range ops {
		b[2*i] = byte(op)
		b[2*i+1] = byte(op >> 8)
	}
	return b
}

// FuzzFusedBlocks feeds arbitrary instruction blocks through the
// fused/reference differential. The committed seeds pin the scenarios the fusion layer must
// survive: a branch into the middle of an already-fused run, a store into
// the run currently executing, a flag consumer heading a run (lazy flag
// evaluation must materialize flags across run boundaries), monitored
// accesses mid-run, and a multi-register transfer vetoed mid-transfer.
func FuzzFusedBlocks(f *testing.F) {
	// 1. Backward conditional branch into the middle of a fused run: the
	//    mid-run entry at 10 must build (and match) its own suffix run.
	f.Add(uint8(0), uint32(0x51), hw(
		movImm8(0, 1),
		addImm8(0, 1), addImm8(0, 1), addImm8(0, 1),
		uint16(0b00101<<11|0<<8|20), // CMP r0, #20
		0xDBFA,                      // BLT .-12 -> 10
		opBKPT,
	))
	// 2. Self-modifying code inside the executing run: the STRH at 16
	//    patches address 20 (still ahead in the same run), so the run must
	//    stop and re-translate — the patched MOVS r2, #0x63 executes, not
	//    the stale MOVS r2, #0.
	f.Add(uint8(3), uint32(0x52), hw(
		movImm8(1, 0x22),
		uint16(0b00000<<11|8<<6|1<<3|1), // LSLS r1, r1, #8
		addImm8(1, 0x63),                // r1 = 0x2263 = MOVS r2, #0x63
		movImm8(3, 20),
		uint16(0b10000<<11|0<<6|3<<3|1), // STRH r1, [r3] — patches addr 20
		movImm8(2, 0),
		movImm8(2, 0), // at 20: overwritten before execution reaches it
		opBKPT,
	))
	// 3. Flag consumer at a run head: the branch at 14 makes 18 head its
	//    own run, whose first instruction reads C set two runs earlier.
	f.Add(uint8(5), uint32(0x53), hw(
		movImm8(1, 1),
		movImm8(0, 0xFF),
		uint16(0b00000<<11|25<<6|0<<3|0), // LSLS r0, r0, #25 (sets C)
		0xE000,                           // B .+4 -> 18
		opBKPT,
		dp(0b0101, 1, 1), // ADCS r1, r1: needs the carried-over C
		opBKPT,
	))
	f.Add(uint8(1), uint32(0xBEEF), hw(benchLoopOps()...))
	// 4. Back-to-back loads at a run head: the loads fuse with what
	//    follows on a monitored bus too, and the monitored pair's vetoes
	//    and yields land between them.
	f.Add(uint8(5), uint32(0x54), hw(
		uint16(0b01101<<11|0<<6|2<<3|0), // LDR r0, [r2]
		uint16(0b01101<<11|1<<6|2<<3|1), // LDR r1, [r2, #4]
		uint16(0b01101<<11|2<<6|2<<3|3), // LDR r3, [r2, #8]
		dp(0b1100, 1, 0),                // ORRS r0, r1
		uint16(0b01100<<11|3<<6|2<<3|0), // STR r0, [r2, #12]
		uint16(0b01101<<11|3<<6|2<<3|4), // LDR r4, [r2, #12]
		0xE7F8,                          // B .-12 -> 8
	))
	// 5. A call loop whose callee spills with PUSH {r0,lr}, stores with
	//    STM and returns with POP {r0,pc}. On the monitored pair the
	//    access-ordinal hash vetoes the STM on its second store inside a
	//    fused call (the first store stays in memory, r5 is not written
	//    back, PC stays on the STM), and a later fused call returns
	//    through the POP straight into the fused run at the return site.
	bl1, bl2 := encodeBL(22 - (12 + 4))
	f.Add(uint8(5), uint32(0x55), hw(
		movImm8(7, 40), //  8: MOVS r7, #40
		addImm8(6, 1),  // 10: loop: ADDS r6, #1
		bl1, bl2,       // 12: BL fn
		subImm8(7, 1),                     // 16: SUBS r7, #1
		0xD100|uint16((10-(18+4))/2&0xFF), // 18: BNE loop
		opBKPT,                            // 20
		0xB501,                            // 22: fn: PUSH {r0, lr}
		uint16(0b01101<<11|0<<6|5<<3|0),   // 24: LDR r0, [r5]
		uint16(0b01101<<11|1<<6|5<<3|0),   // 26: LDR r0, [r5, #4]
		0xC507,                            // 28: STM r5!, {r0-r2}
		subImm8(5, 12),                    // 30: SUBS r5, #12
		0xBD01,                            // 32: POP {r0, pc}
	))
	f.Fuzz(func(t *testing.T, budgetSel uint8, seed uint32, prog []byte) {
		if len(prog) > 96 {
			prog = prog[:96]
		}
		ops := make([]uint16, 0, len(prog)/2+1)
		for i := 0; i+1 < len(prog); i += 2 {
			ops = append(ops, uint16(prog[i])|uint16(prog[i+1])<<8)
		}
		ops = append(ops, opBKPT)
		budgets := []uint64{1, 2, 3, 5, 8, 1000}
		for _, p := range []*fusedPair{newFusedPair(t), newMonitoredPair(t)} {
			p.writeProgram(8, ops)
			p.seed(seed, 8)
			for step := 0; step < 250; step++ {
				label := fmt.Sprintf("step %d (pc %#x)", step, p.ref.CPU.R[PC])
				err := p.sync(t, budgets[(int(budgetSel)+step)%len(budgets)], label)
				if err != nil {
					p.deepCompare(t, label)
					if !errors.Is(err, errTestVeto) {
						break
					}
				}
			}
			p.deepCompare(t, "final")
		}
	})
}

// TestFusedRunInvalidationTwoSided pins Invalidate's run-killing window from
// both sides: writes into the run (including the one-halfword-early window
// reaching the run's last slot from just past its end) must clear the head,
// while writes just past the end, just below the head, or far away must
// leave it alone — that precision is what keeps globals directly after text
// from retranslating code on every store.
func TestFusedRunInvalidationTwoSided(t *testing.T) {
	// Seven 16-bit ALU instructions at 8..20 and the BKPT that ends the
	// block at 22 (slots 4..11): one run with head slot 4, span 8 halfword
	// slots, endPC 24.
	build := func(t *testing.T) (*Machine, int32) {
		t.Helper()
		ops := []uint16{
			movImm8(0, 1), addImm8(0, 2), movImm8(1, 3), addImm8(1, 4),
			movImm8(2, 5), addImm8(2, 6), movImm8(3, 7),
			opBKPT,
		}
		m := NewMachine()
		if err := m.Boot(asmImage(ops...)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(1000); err != nil {
			t.Fatalf("run: %v", err)
		}
		rid := m.CPU.pd.runTab[4]
		if rid <= 0 {
			t.Fatalf("no fused run at the entry block (runTab[4] = %d)", rid)
		}
		if span := m.CPU.pd.runs[rid-1].span; span != 8 {
			t.Fatalf("run span = %d slots, want 8", span)
		}
		return m, rid
	}
	cases := []struct {
		name string
		addr uint32
		size uint32
		dead bool
	}{
		// Above the run: slot 12 is the endPC slot, one past the last
		// covered slot, so the span-precise backward sweep spares the run;
		// one halfword lower the window reaches slot 11 and kills it.
		{"just_past_end", 26, 2, false},
		{"window_reaches_last_slot", 24, 2, true},
		// Below the run: a write ending at slot 3 never touches it.
		{"just_below_head", 4, 4, false},
		{"far_away", 0x200, 4, false},
		{"head_direct", 8, 2, true},
		{"mid_run", 16, 4, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			m, rid := build(t)
			m.CPU.pd.Invalidate(tc.addr, tc.size)
			got := m.CPU.pd.runTab[4]
			if tc.dead && got == rid {
				t.Errorf("write [%#x,+%d) left the run live", tc.addr, tc.size)
			}
			if !tc.dead && got != rid {
				t.Errorf("write [%#x,+%d) killed the run (runTab[4] = %d, want %d)",
					tc.addr, tc.size, got, rid)
			}
		})
	}
	t.Run("store_through_memory", func(t *testing.T) {
		m, rid := build(t)
		m.Mem.WriteWord(20, 0xBE00BE00)
		if got := m.CPU.pd.runTab[4]; got == rid {
			t.Error("data store into the run left it live (write hook not wired?)")
		}
	})
}

// TestStepFusedNoAllocs pins the steady-state fused execution paths — both
// the single-instruction budget and whole-block chaining, plus the RunTo
// driver loop and a monitored (strict-mode) bus whose runs span accesses
// and stop on yields and vetoes — to zero heap allocations, matching
// TestStepNoAllocs for Step.
func TestStepFusedNoAllocs(t *testing.T) {
	m := NewMachine()
	if err := m.Boot(asmImage(benchLoopOps()...)); err != nil {
		t.Fatal(err)
	}
	// Warm up: translate the loop's runs (the arenas are pre-sized, but the
	// alloc guard should measure pure steady state).
	for i := 0; i < 16; i++ {
		if err := m.CPU.StepFused(1); err != nil {
			t.Fatal(err)
		}
	}
	for _, sub := range []struct {
		name   string
		budget uint64
	}{{"budget1", 1}, {"budget1000", 1000}} {
		t.Run(sub.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(10, func() {
				for i := 0; i < 500; i++ {
					if err := m.CPU.StepFused(sub.budget); err != nil {
						t.Fatal(err)
					}
				}
			})
			if avg != 0 {
				t.Errorf("steady-state StepFused(%d) allocates: %v per 500 calls, want 0",
					sub.budget, avg)
			}
		})
	}
	t.Run("runTo", func(t *testing.T) {
		avg := testing.AllocsPerRun(10, func() {
			if err := m.CPU.RunTo(m.CPU.Cycle + 20000); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("steady-state fused RunTo allocates: %v per 20000 cycles, want 0", avg)
		}
	})
	t.Run("monitored", func(t *testing.T) {
		mm, bus := newMonitoredMachine(true)
		bus.record = false
		if err := mm.Boot(asmImage(benchLoopOps()...)); err != nil {
			t.Fatal(err)
		}
		step := func() {
			if err := mm.CPU.StepFused(1000); err != nil && !errors.Is(err, errTestVeto) {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			step()
		}
		if rid := mm.CPU.pd.runTab[10>>1]; rid <= 0 || mm.CPU.pd.runs[rid-1].endPC != 22 {
			t.Fatalf("monitored loop body is not one fused run across its STR/LDR (runTab[5] = %d)", rid)
		}
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < 500; i++ {
				step()
			}
		})
		if avg != 0 {
			t.Errorf("steady-state monitored StepFused allocates: %v per 500 calls, want 0", avg)
		}
	})
	t.Run("port", func(t *testing.T) {
		// The monitored loop again, with an access port certifying the
		// loop's data word for reads and writes: every STR/LDR completes
		// in the loop and the bus sees none of them.
		mm, bus := newMonitoredMachine(true)
		if err := mm.Boot(asmImage(benchLoopOps()...)); err != nil {
			t.Fatal(err)
		}
		rd, wr := accfilter.Empty, accfilter.Empty
		const word = 0x80 >> 2
		rd[word&accfilter.Mask], wr[word&accfilter.Mask] = word, word
		var (
			accesses int
			idx      accfilter.Index
			epoch    = accfilter.Tag(1)
		)
		mm.CPU.SetAccessPort(accfilter.Port{Read: &rd, Write: &wr, Accesses: &accesses, Index: &idx, Epoch: &epoch}, mm.Mem)
		step := func() {
			if err := mm.CPU.StepFused(1000); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 16; i++ {
			step()
		}
		avg := testing.AllocsPerRun(10, func() {
			for i := 0; i < 500; i++ {
				step()
			}
		})
		if avg != 0 {
			t.Errorf("steady-state StepFused with an access port allocates: %v per 500 calls, want 0", avg)
		}
		if bus.ordinal != 0 || accesses == 0 {
			t.Errorf("port-certified accesses reached the bus: %d bus accesses, %d port accesses", bus.ordinal, accesses)
		}
	})
}
