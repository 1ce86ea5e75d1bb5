package armsim

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// The decode cache's miss path (decode) serves every instruction the cache
// cannot hold: PC outside main memory, a frozen shared cache's refused
// slot, and a 32-bit encoding whose second halfword cannot be fetched.
// These tests drive each case through all three entry points — Step, RunTo
// and StepFused — and require the final state and error to equal the
// reference interpreter's exactly, so a miss path that skips an
// instruction or raises a different error fails them.

// entryPoints are the CPU's three execution drivers, each run until the
// first error (ErrHalted on a clean halt). StepFused cycles its budget so
// runs, budget stops and single steps all occur.
var entryPoints = []struct {
	name string
	run  func(c *CPU) error
}{
	{"Step", func(c *CPU) error {
		for i := 0; i < 1_000_000; i++ {
			if err := c.Step(); err != nil {
				return err
			}
		}
		return fmt.Errorf("no stop within 1000000 steps (pc %#x)", c.R[PC])
	}},
	{"RunTo", func(c *CPU) error {
		if err := c.RunTo(50_000_000); err != nil {
			return err
		}
		return fmt.Errorf("no stop within 50000000 cycles (pc %#x)", c.R[PC])
	}},
	{"StepFused", func(c *CPU) error {
		budgets := []uint64{1, 2, 3, 5, 8, 1000}
		for i := 0; i < 1_000_000; i++ {
			if err := c.StepFused(budgets[i%len(budgets)]); err != nil {
				return err
			}
		}
		return fmt.Errorf("no stop within 1000000 calls (pc %#x)", c.R[PC])
	}},
}

// stateDiff describes the first architectural difference between got and
// want — registers, flags, Cycle, Insns, all of memory and the output log —
// or returns "" when there is none.
func stateDiff(got, want *CPU, gotMem, wantMem *Memory) string {
	switch {
	case got.R != want.R:
		return fmt.Sprintf("registers %v, want %v", got.R, want.R)
	case got.N != want.N || got.Z != want.Z || got.C != want.C || got.V != want.V ||
		got.Prim != want.Prim || got.Halt != want.Halt:
		return fmt.Sprintf("flags N%v Z%v C%v V%v P%v H%v, want N%v Z%v C%v V%v P%v H%v",
			got.N, got.Z, got.C, got.V, got.Prim, got.Halt, want.N, want.Z, want.C, want.V, want.Prim, want.Halt)
	case got.Cycle != want.Cycle || got.Insns != want.Insns:
		return fmt.Sprintf("cycle %d insns %d, want cycle %d insns %d", got.Cycle, got.Insns, want.Cycle, want.Insns)
	case !bytes.Equal(gotMem.Bytes(), wantMem.Bytes()):
		return "memory contents differ"
	case fmt.Sprint(gotMem.Outputs) != fmt.Sprint(wantMem.Outputs):
		return fmt.Sprintf("outputs %v, want %v", gotMem.Outputs, wantMem.Outputs)
	}
	return ""
}

// sameOutcome fails the test unless err and the machine state equal the
// reference's.
func sameOutcome(t *testing.T, label string, err, refErr error, got, ref *Machine) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Errorf("%s: error %v, reference %v", label, err, refErr)
	}
	if d := stateDiff(got.CPU, ref.CPU, got.Mem, ref.Mem); d != "" {
		t.Errorf("%s: %s", label, d)
	}
}

// missLimitImage calls a function in a loop, with the shared-program text
// bound (missLimitTextEnd) cutting through the middle: the code below it
// caches and fuses, the BL at 16 straddles it, and everything from 18 up —
// the loop tail, the function with its literal load, stores and output —
// lies above it, so a frozen cache never holds those slots.
//
//	 8: MOVS r7, #5
//	10: MOVS r4, #0x80
//	12: LSLS r4, r4, #2       ; r4 = 0x200, the data pointer
//	14: loop: ADDS r6, #3
//	16: BL fn                 ; second halfword at 18, past the bound
//	20: SUBS r7, #1
//	22: BNE loop
//	24: BKPT
//	26: (pad)
//	28: fn: PUSH {r0, lr}
//	30: LDR r0, [pc, #8]      ; =OutputBase
//	32: STR r6, [r0]          ; output r6
//	34: STR r6, [r4]
//	36: ADDS r4, #4
//	38: POP {r0, pc}
//	40: .word OutputBase
const missLimitTextEnd = 18

func missLimitImage() []byte {
	bl1, bl2 := encodeBL(28 - (16 + 4))
	return asmImage(
		movImm8(7, 5),
		movImm8(4, 0x80),
		uint16(0b00000<<11|2<<6|4<<3|4), // LSLS r4, r4, #2
		addImm8(6, 3),
		bl1, bl2,
		subImm8(7, 1),
		0xD1FA, // BNE .-8 -> 14
		opBKPT,
		opBKPT,
		0xB501,         // PUSH {r0, lr}
		0x4802,         // LDR r0, [pc, #8] -> 40
		0x6006,         // STR r6, [r0]
		0x6026,         // STR r6, [r4]
		addImm8(4, 4),  // ADDS r4, #4
		0xBD01,         // POP {r0, pc}
		0x0000, 0x4000, // .word OutputBase
	)
}

// TestMissPathFrozenRefusedSlots runs a frozen shared program whose text
// bound lies below executed code, so the refused slots — including the
// second halfword of a straddling BL — execute through the miss path. Two
// devices per entry point run concurrently on the one frozen cache (the
// CI -race step covers it); each must finish in the reference
// interpreter's state and a private machine's, and the frozen cache must
// still hold nothing at or above the bound.
func TestMissPathFrozenRefusedSlots(t *testing.T) {
	img := missLimitImage()
	sp, err := NewSharedProgram(img, readImgWord(img, 0), readImgWord(img, 4), missLimitTextEnd, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sp.pd.runTab[8>>1] <= 0 {
		t.Fatal("the code below the bound was not fused")
	}

	ref := newRefMachine()
	if err := ref.Boot(img); err != nil {
		t.Fatal(err)
	}
	refErr := ref.CPU.runRef(50_000_000)
	if refErr != ErrHalted || len(ref.Mem.Outputs) != 5 {
		t.Fatalf("reference run: %v with outputs %v, want a halt after 5 outputs", refErr, ref.Mem.Outputs)
	}
	priv := NewMachine()
	if err := priv.Boot(img); err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "private machine", priv.CPU.RunTo(50_000_000), refErr, priv, ref)

	type device struct {
		label string
		m     *Machine
		run   func(*CPU) error
		err   error
	}
	var devs []*device
	for _, e := range entryPoints {
		for i := 0; i < 2; i++ {
			cpu, mem := attachDevice(t, sp, img)
			devs = append(devs, &device{label: fmt.Sprintf("%s device %d", e.name, i), m: &Machine{CPU: cpu, Mem: mem}, run: e.run})
		}
	}
	var wg sync.WaitGroup
	for _, d := range devs {
		wg.Add(1)
		go func(d *device) {
			defer wg.Done()
			d.err = d.run(d.m.CPU)
		}(d)
	}
	wg.Wait()
	for _, d := range devs {
		sameOutcome(t, d.label, d.err, refErr, d.m, ref)
		if !d.m.CPU.Frozen() {
			t.Errorf("%s: left the frozen cache", d.label)
		}
	}
	for slot := missLimitTextEnd / 2; slot < len(img)/2; slot++ {
		if k := sp.pd.tab[slot].Kind; k != kindNone {
			t.Errorf("frozen slot %d (pc %#x) was written: kind %d", slot, 2*slot, k)
		}
	}
	if k := sp.pd.tab[16/2].Kind; k != kindNone {
		t.Errorf("the straddling BL was cached: kind %d", k)
	}
}

// TestMissPathUnfetchableSecondHalfword puts the first halfword of a BL in
// the last halfword of memory, after two ordinary instructions: every entry
// point must retire those two and then raise the reference's fetch fault
// for the second halfword, with the faulting instruction leaving no trace
// and nothing cached for it.
func TestMissPathUnfetchableSecondHalfword(t *testing.T) {
	const start = MemSize - 6
	bl1, _ := encodeBL(0)
	setup := func(m *Machine) {
		m.Mem.WriteWord(start-2, uint32(movImm8(0, 1))<<16)
		m.Mem.WriteWord(start+2, uint32(addImm8(0, 2))|uint32(bl1)<<16)
		m.CPU.ResetInto(MemSize-256, start)
	}
	ref := newRefMachine()
	setup(ref)
	refErr := ref.CPU.runRef(1000)
	if refErr == nil || refErr == ErrHalted || ref.CPU.Insns != 2 || ref.CPU.R[PC] != MemSize-2 {
		t.Fatalf("reference: %v after %d insns at pc %#x, want a fetch fault at pc %#x after 2",
			refErr, ref.CPU.Insns, ref.CPU.R[PC], MemSize-2)
	}
	for _, e := range entryPoints {
		m := NewMachine()
		setup(m)
		err := e.run(m.CPU)
		sameOutcome(t, e.name, err, refErr, m, ref)
		if k := m.CPU.pd.tab[(MemSize-2)/2].Kind; k != kindNone {
			t.Errorf("%s: the unfetchable BL was cached: kind %d", e.name, k)
		}
	}
}

// romBus is a monitored bus whose instruction fetches at and above MemSize
// come from a small ROM: code there has no decode-cache slot, so every
// instruction in it runs through the miss path. Fetches past the ROM's end
// fault like any fetch outside memory.
type romBus struct {
	mem *Memory
	rom []uint16
}

func (b romBus) Load(addr uint32, size uint8, pc uint32) (uint32, error) {
	return b.mem.Load(addr, size, pc)
}

func (b romBus) Store(addr uint32, size uint8, v uint32, pc uint32) error {
	return b.mem.Store(addr, size, v, pc)
}

func (b romBus) Fetch16(addr uint32) (uint16, error) {
	if i := (addr - MemSize) / 2; addr >= MemSize && i < uint32(len(b.rom)) {
		return b.rom[i], nil
	}
	return b.mem.Fetch16(addr)
}

// TestMissPathRunToAboveMemory branches from RAM into ROM above MemSize:
// a three-instruction function called three times, then a jump onto a BL
// whose second halfword lies past the ROM. Each entry point (RunTo first
// among them) must execute the ROM code through the miss path exactly as
// the reference does and stop with the same fetch fault.
//
//	RAM  8: MOVS r0, #1
//	    10: LSLS r0, r0, #18      ; r0 = MemSize
//	    12: ADDS r0, #1           ; Thumb bit
//	    14: loop: BLX r0          ; call ROM+0
//	    16: ADDS r7, #1
//	    18: CMP r7, #3
//	    20: BNE loop
//	    22: ADDS r0, #6
//	    24: BX r0                 ; ROM+6
//	ROM  0: ADDS r6, #5
//	     2: MULS r6, r6
//	     4: BX LR
//	     6: BL prefix             ; second halfword unfetchable
func TestMissPathRunToAboveMemory(t *testing.T) {
	bl1, _ := encodeBL(0)
	rom := []uint16{addImm8(6, 5), dp(0b1101, 6, 6), 0x4770, bl1}
	img := asmImage(
		movImm8(0, 1),
		uint16(0b00000<<11|18<<6|0<<3|0), // LSLS r0, r0, #18
		addImm8(0, 1),
		0x4780, // BLX r0
		addImm8(7, 1),
		uint16(0b00101<<11|7<<8|3), // CMP r7, #3
		0xD1FB,                     // BNE .-6 -> 14
		addImm8(0, 6),
		0x4700, // BX r0
	)
	boot := func(predecode bool) *Machine {
		mem := NewMemory()
		cpu := NewCPU(romBus{mem: mem, rom: rom})
		if predecode {
			cpu.EnablePredecode(mem)
		}
		m := &Machine{CPU: cpu, Mem: mem}
		if err := m.Boot(img); err != nil {
			t.Fatal(err)
		}
		m.CPU.R[6] = 1
		return m
	}
	ref := boot(false)
	refErr := ref.CPU.runRef(50_000_000)
	if refErr == nil || refErr == ErrHalted || ref.CPU.R[PC] != MemSize+6 || ref.CPU.R[7] != 3 {
		t.Fatalf("reference: %v at pc %#x with r7 %d, want a fetch fault at pc %#x after 3 calls",
			refErr, ref.CPU.R[PC], ref.CPU.R[7], MemSize+6)
	}
	for _, e := range entryPoints {
		m := boot(true)
		if !m.CPU.FusionEnabled() {
			t.Fatal("fusion not enabled")
		}
		sameOutcome(t, e.name, e.run(m.CPU), refErr, m, ref)
	}
}
