package armsim

import (
	"bytes"
	"sync"
	"testing"
)

// putWord writes a little-endian word into an image under construction.
func putWord(img []byte, off int, v uint32) {
	img[off] = byte(v)
	img[off+1] = byte(v >> 8)
	img[off+2] = byte(v >> 16)
	img[off+3] = byte(v >> 24)
}

func putHalf(img []byte, off int, v uint16) {
	img[off] = byte(v)
	img[off+1] = byte(v >> 8)
}

// loopImage is a hand-assembled straight-line+loop program with a vector
// table: it sums 3 ten times (r0 = 30), stores the result to a global at
// 0x10000 (well above text) and to the output port, then halts.
//
//	0x40: MOVS r0, #0
//	0x42: MOVS r1, #10
//	0x44: ADDS r0, #3      <- loop
//	0x46: SUBS r1, #1
//	0x48: BNE  0x44
//	0x4A: LDR  r2, [pc,#12]  ; =OutputBase
//	0x4C: STR  r0, [r2]
//	0x4E: LDR  r3, [pc,#12]  ; =0x10000
//	0x50: STR  r0, [r3]
//	0x52: BKPT
//	0x54: (pad)
//	0x58: .word OutputBase
//	0x5C: .word 0x10000
const loopImageTextEnd = 0x60

func loopImage() []byte {
	img := make([]byte, 0x60)
	putWord(img, 0, MemSize-64) // initial SP
	putWord(img, 4, 0x40|1)     // entry (thumb bit set, as ccc emits)
	putHalf(img, 0x40, 0x2000)  // MOVS r0, #0
	putHalf(img, 0x42, 0x210A)  // MOVS r1, #10
	putHalf(img, 0x44, 0x3003)  // ADDS r0, #3
	putHalf(img, 0x46, 0x3901)  // SUBS r1, #1
	putHalf(img, 0x48, 0xD1FC)  // BNE  -8 -> 0x44
	putHalf(img, 0x4A, 0x4A03)  // LDR  r2, [pc, #12] -> 0x58
	putHalf(img, 0x4C, 0x6010)  // STR  r0, [r2]
	putHalf(img, 0x4E, 0x4B03)  // LDR  r3, [pc, #12] -> 0x5C
	putHalf(img, 0x50, 0x6018)  // STR  r0, [r3]
	putHalf(img, 0x52, opBKPT)
	putHalf(img, 0x54, opBKPT) // pad
	putWord(img, 0x58, OutputBase)
	putWord(img, 0x5C, 0x10000)
	return img
}

// smcImage overwrites one of its own instructions before executing it:
// the patch site holds MOVS r2,#7 in the pristine image but MOVS r2,#0x63
// by the time it executes, so the program outputs 0x63.
//
//	0x40: LDR  r0, [pc,#12]  ; =0x46 (patch site)
//	0x42: LDR  r1, [pc,#16]  ; =0x2263 (MOVS r2,#0x63)
//	0x44: STRH r1, [r0]
//	0x46: MOVS r2, #7        <- patched to MOVS r2,#0x63
//	0x48: LDR  r3, [pc,#12]  ; =OutputBase
//	0x4A: STR  r2, [r3]
//	0x4C: BKPT
//	0x4E: (pad)
//	0x50: .word 0x46
//	0x54: .word 0x2263
//	0x58: .word OutputBase
const smcImageTextEnd = 0x5C

func smcImage() []byte {
	img := make([]byte, 0x5C)
	putWord(img, 0, MemSize-64)
	putWord(img, 4, 0x40|1)
	putHalf(img, 0x40, 0x4803) // LDR r0, [pc, #12] -> 0x50
	putHalf(img, 0x42, 0x4904) // LDR r1, [pc, #16] -> 0x54
	putHalf(img, 0x44, 0x8001) // STRH r1, [r0]
	putHalf(img, 0x46, 0x2207) // MOVS r2, #7 (patch site)
	putHalf(img, 0x48, 0x4B03) // LDR r3, [pc, #12] -> 0x58
	putHalf(img, 0x4A, 0x601A) // STR r2, [r3]
	putHalf(img, 0x4C, opBKPT)
	putHalf(img, 0x4E, opBKPT) // pad
	putWord(img, 0x50, 0x46)
	putWord(img, 0x54, 0x2263)
	putWord(img, 0x58, OutputBase)
	return img
}

// attachDevice builds a fresh memory+CPU pair executing through sp.
func attachDevice(t *testing.T, sp *SharedProgram, img []byte) (*CPU, *Memory) {
	t.Helper()
	mem := NewMemory()
	if err := mem.LoadImage(0, img); err != nil {
		t.Fatal(err)
	}
	cpu := NewCPU(mem)
	cpu.AttachShared(sp, mem)
	cpu.ResetInto(readImgWord(img, 0), readImgWord(img, 4))
	return cpu, mem
}

func readImgWord(img []byte, off int) uint32 {
	return uint32(img[off]) | uint32(img[off+1])<<8 | uint32(img[off+2])<<16 | uint32(img[off+3])<<24
}

func runToHalt(t *testing.T, cpu *CPU) {
	t.Helper()
	if err := cpu.RunTo(1_000_000); err != ErrHalted {
		t.Fatalf("RunTo: %v (pc %#x)", err, cpu.R[PC])
	}
}

// TestSharedProgramMatchesPrivate proves a device executing through the
// frozen shared cache is architecturally identical to a private machine:
// same registers, cycles, retired instructions, outputs, and memory.
func TestSharedProgramMatchesPrivate(t *testing.T) {
	img := loopImage()

	priv := NewMachine()
	if err := priv.Boot(img); err != nil {
		t.Fatal(err)
	}
	privCycles, err := priv.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}

	sp, err := NewSharedProgram(img, readImgWord(img, 0), readImgWord(img, 4), loopImageTextEnd, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Runs == 0 {
		t.Error("warm-up discovered no fused runs for a straight-line loop")
	}
	cpu, mem := attachDevice(t, sp, img)
	runToHalt(t, cpu)

	if !cpu.Frozen() {
		t.Error("device diverged from the frozen cache without writing text")
	}
	if cpu.R[0] != 30 {
		t.Errorf("r0 = %d, want 30", cpu.R[0])
	}
	if cpu.Cycle != privCycles {
		t.Errorf("shared cycles %d != private cycles %d", cpu.Cycle, privCycles)
	}
	if cpu.Insns != priv.CPU.Insns {
		t.Errorf("shared insns %d != private insns %d", cpu.Insns, priv.CPU.Insns)
	}
	if cpu.R != priv.CPU.R {
		t.Errorf("register mismatch:\n  shared:  %v\n  private: %v", cpu.R, priv.CPU.R)
	}
	if len(mem.Outputs) != 1 || mem.Outputs[0] != 30 {
		t.Errorf("outputs = %v, want [30]", mem.Outputs)
	}
	if !bytes.Equal(mem.Bytes(), priv.Mem.Bytes()) {
		t.Error("memory contents diverged from the private machine")
	}
}

// TestSharedProgramConcurrentReboots runs several devices against one
// frozen cache simultaneously, each rebooting many times through ResetTo,
// whose restore of data-only changes fires the copy-on-write hook only
// above the frozen bound. Under -race (CI) this is the proof that frozen
// execution never writes the shared cache.
func TestSharedProgramConcurrentReboots(t *testing.T) {
	img := loopImage()
	sp, err := NewSharedProgram(img, readImgWord(img, 0), readImgWord(img, 4), loopImageTextEnd, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for dev := 0; dev < 4; dev++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mem := NewMemory()
			if err := mem.LoadImage(0, img); err != nil {
				errs <- err.Error()
				return
			}
			cpu := NewCPU(mem)
			cpu.AttachShared(sp, mem)
			for boot := 0; boot < 50; boot++ {
				if err := mem.ResetTo(img); err != nil {
					errs <- err.Error()
					return
				}
				cpu.ResetInto(readImgWord(img, 0), readImgWord(img, 4))
				cpu.Cycle, cpu.Insns = 0, 0
				if err := cpu.RunTo(1_000_000); err != ErrHalted {
					errs <- "device did not halt: " + err.Error()
					return
				}
				if cpu.R[0] != 30 || len(mem.Outputs) != 1 || mem.Outputs[0] != 30 {
					errs <- "wrong result on a rebooted device"
					return
				}
				if !cpu.Frozen() {
					errs <- "device fell off the frozen cache"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSharedProgramCopyOnWrite proves a self-modifying device clones the
// cache privately (correct patched execution, shared cache untouched and
// still frozen for other devices).
func TestSharedProgramCopyOnWrite(t *testing.T) {
	img := smcImage()
	sp, err := NewSharedProgram(img, readImgWord(img, 0), readImgWord(img, 4), smcImageTextEnd, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The warm-up itself self-modifies, so the freeze must have fallen back
	// to decode-only (runs built from patched text would be wrong for a
	// fresh device).
	if sp.Runs != 0 {
		t.Errorf("self-modifying warm-up froze %d runs, want 0", sp.Runs)
	}

	for dev := 0; dev < 2; dev++ {
		cpu, mem := attachDevice(t, sp, img)
		runToHalt(t, cpu)
		if len(mem.Outputs) != 1 || mem.Outputs[0] != 0x63 {
			t.Fatalf("device %d outputs = %#x, want [0x63]", dev, mem.Outputs)
		}
		if cpu.Frozen() {
			t.Fatalf("device %d still frozen after writing its own text", dev)
		}
		if !sp.pd.frozen {
			t.Fatal("copy-on-write unfroze the shared cache itself")
		}
	}

	// The pristine patch-site entry must still decode as MOVS r2,#7 in the
	// shared cache (slot 0x46>>1), not the patched encoding.
	if d := sp.pd.tab[0x46>>1]; d.Kind != kindMOVImm || d.Imm != 7 {
		t.Errorf("shared cache patch-site slot = kind %d imm %#x, want pristine MOVS r2,#7", d.Kind, d.Imm)
	}
}

// TestResetToRestoresImageExactly pins the device reset: after a run
// dirties globals, stack, and outputs, ResetTo must restore byte-exact
// fresh-image memory without cloning the frozen cache, and refuse an image
// larger than memory.
func TestResetToRestoresImageExactly(t *testing.T) {
	img := loopImage()
	sp, err := NewSharedProgram(img, readImgWord(img, 0), readImgWord(img, 4), loopImageTextEnd, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu, mem := attachDevice(t, sp, img)
	runToHalt(t, cpu)
	if mem.ReadWord(0x10000) != 30 {
		t.Fatalf("global = %d, want 30 before reset", mem.ReadWord(0x10000))
	}

	if err := mem.ResetTo(img); err != nil {
		t.Fatal(err)
	}

	fresh := NewMemory()
	if err := fresh.LoadImage(0, img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem.Bytes(), fresh.Bytes()) {
		t.Error("ResetTo did not restore byte-exact fresh-image memory")
	}
	if len(mem.Outputs) != 0 {
		t.Errorf("ResetTo left %d outputs", len(mem.Outputs))
	}
	if !cpu.Frozen() {
		t.Error("ResetTo invalidated the frozen cache")
	}
	if err := mem.ResetTo(make([]byte, MemSize+1)); err == nil {
		t.Error("ResetTo accepted an image larger than memory")
	}

	// And the device still runs correctly afterwards.
	cpu.ResetInto(readImgWord(img, 0), readImgWord(img, 4))
	runToHalt(t, cpu)
	if cpu.R[0] != 30 {
		t.Errorf("post-reset r0 = %d, want 30", cpu.R[0])
	}
}

// TestSharedProgramMatches pins the attach-time compatibility check.
func TestSharedProgramMatches(t *testing.T) {
	img := loopImage()
	sp, err := NewSharedProgram(img, readImgWord(img, 0), readImgWord(img, 4), loopImageTextEnd, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Matches(img, 0, 0); err != nil {
		t.Errorf("Matches rejected its own image: %v", err)
	}
	other := loopImage()
	other[0x45] ^= 0xFF
	if err := sp.Matches(other, 0, 0); err == nil {
		t.Error("Matches accepted a different image")
	}
	if err := sp.Matches(img, 0x10, 0x18); err == nil {
		t.Error("Matches accepted a different TEXT window")
	}
	if sp.FootprintBytes() == 0 {
		t.Error("FootprintBytes = 0 for a built cache")
	}
}

// litCodes counts the literal-load micro-ops in sp's frozen runs.
func litCodes(sp *SharedProgram) (inText, plain int) {
	for _, r := range sp.pd.runs {
		for _, op := range sp.pd.ops[r.off : r.off+uint32(r.n)] {
			switch op.code {
			case fopLdrLitT:
				inText++
			case fopLdrLitC:
				plain++
			}
		}
	}
	return inText, plain
}

// addrBus is a Bus over a Memory that counts the loads of each address.
type addrBus struct {
	mem   *Memory
	loads map[uint32]int
}

func (b *addrBus) Load(addr uint32, size uint8, pc uint32) (uint32, error) {
	b.loads[addr]++
	return b.mem.Load(addr, size, pc)
}

func (b *addrBus) Store(addr uint32, size uint8, v uint32, pc uint32) error {
	return b.mem.Store(addr, size, v, pc)
}

func (b *addrBus) Fetch16(addr uint32) (uint16, error) { return b.mem.Fetch16(addr) }

// TestFrozenTextLiteral pins decode-time TEXT-literal classification, whose
// loss would change no counter, only fleet speed. The TEXT window alone
// decides it: NewSharedProgram over the bare Memory freezes fopLdrLitT
// micro-ops for the literal loads inside the window, and none without
// one; and a CPU on an ordinary bus, with the window set and no access
// port, reads a classified literal through Bus.Load exactly once.
func TestFrozenTextLiteral(t *testing.T) {
	img := loopImage()
	initSP, entry := readImgWord(img, 0), readImgWord(img, 4)
	lo, hi := uint32(0x40>>2), uint32(loopImageTextEnd>>2)

	frozen, err := NewSharedProgram(img, initSP, entry, loopImageTextEnd, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if inText, plain := litCodes(frozen); inText == 0 || plain != 0 {
		t.Errorf("window [%d, %d): frozen runs hold %d fopLdrLitT and %d fopLdrLitC, want some and none", lo, hi, inText, plain)
	}
	bare, err := NewSharedProgram(img, initSP, entry, loopImageTextEnd, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if inText, plain := litCodes(bare); inText != 0 || plain == 0 {
		t.Errorf("no window: frozen runs hold %d fopLdrLitT and %d fopLdrLitC, want none and some", inText, plain)
	}

	mem := NewMemory()
	if err := mem.LoadImage(0, img); err != nil {
		t.Fatal(err)
	}
	bus := &addrBus{mem: mem, loads: map[uint32]int{}}
	cpu := NewCPU(bus)
	cpu.EnablePredecode(mem)
	cpu.SetTextWindow(lo, hi)
	cpu.ResetInto(initSP, entry)
	runToHalt(t, cpu)
	if k := cpu.pd.tab[0x4A>>1].Kind; k != kindLDRLitText {
		t.Fatalf("LDR r2, [pc, #12] at 0x4A decoded as kind %d, want kindLDRLitText", k)
	}
	if n := bus.loads[0x58]; n != 1 {
		t.Errorf("literal at 0x58 reached Bus.Load %d times, want 1", n)
	}
	if len(mem.Outputs) != 1 || mem.Outputs[0] != 30 {
		t.Errorf("outputs = %v, want [30]", mem.Outputs)
	}
}

// TestFrozenInvalidatePanics pins the frozen-cache tripwire: a direct
// Invalidate of a frozen shared cache is a wiring bug, so it panics
// instead of mutating state other CPUs execute. No public entry point
// reaches it — every write hook on a frozen CPU clones the cache first;
// intermittent's TestFrozenInvalidateUnreachable drives those entry
// points.
func TestFrozenInvalidatePanics(t *testing.T) {
	img := smcImage()
	sp, err := NewSharedProgram(img, readImgWord(img, 0), readImgWord(img, 4), smcImageTextEnd, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Invalidate on a frozen cache returned")
		}
	}()
	sp.pd.Invalidate(0x46, 2)
}
