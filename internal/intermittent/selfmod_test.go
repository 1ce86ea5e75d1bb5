package intermittent

import (
	"encoding/binary"
	"testing"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/power"
)

// Self-modifying code under intermittent execution: a program that patches
// its own text region must behave identically with and without power
// failures. This exercises two mechanisms at once: Clank's text-write
// checkpoint (section 3.2.4 — the patch forces a checkpoint and then passes
// through, so rollback can never replay pre-patch code after the patch
// lands in non-volatile memory) and the armsim predecode cache's
// invalidation (the patched instruction must be re-decoded, not served
// stale, on every subsequent boot of the same machine).

// selfModImage hand-assembles the patching program; ccc has no way to take
// the address of code, so the image is built directly. Layout (entry = 8):
//
//	 8: B start(14)
//	10: target: MOVS r2, #7     <- patched to MOVS r2, #0x63 mid-run
//	12: BX LR
//	14: start: MOVS r6, #1
//	16: LSLS r6, r6, #30        ; r6 = output port (0x40000000)
//	18: MOVS r0, #250
//	20: loop1: SUBS r0, #1      ; burn cycles so power failures land here
//	22: BNE loop1
//	24: BL target               ; r2 = 7 (caches target's decode)
//	28: STR r2, [r6]            ; output 7
//	30: MOVS r1, #0x22          ; build 0x2263 = MOVS r2, #0x63
//	32: LSLS r1, r1, #8
//	34: ADDS r1, #0x63
//	36: MOVS r5, #0x80
//	38: LDR r4, [r5]            ; tracked read: the patch won't open a section
//	40: MOVS r3, #10
//	42: STRH r1, [r3]           ; patch the target (text write)
//	44: MOVS r0, #250
//	46: loop2: SUBS r0, #1
//	48: BNE loop2
//	50: BL target               ; must execute the patched instruction
//	54: STR r2, [r6]            ; output 0x63
//	56: BKPT
func selfModImage() *ccc.Image {
	bl1a, bl2a := thumbBL(24, 10)
	bl1b, bl2b := thumbBL(50, 10)
	return thumbImage(
		thumbB(8, 14),    //  8
		movImm8(2, 7),    // 10: target
		bxLR,             // 12
		movImm8(6, 1),    // 14: start
		lslImm(6, 6, 30), // 16
		movImm8(0, 250),  // 18
		subImm8(0, 1),    // 20: loop1
		thumbBNE(22, 20), // 22
		bl1a, bl2a,       // 24: BL target
		strImm(2, 6, 0),  // 28: output 7
		movImm8(1, 0x22), // 30
		lslImm(1, 1, 8),  // 32
		addImm8(1, 0x63), // 34
		movImm8(5, 0x80), // 36
		ldrImm(4, 5, 0),  // 38
		movImm8(3, 10),   // 40
		strhImm(1, 3, 0), // 42: patch
		movImm8(0, 250),  // 44
		subImm8(0, 1),    // 46: loop2
		thumbBNE(48, 46), // 48
		bl1b, bl2b,       // 50: BL target
		strImm(2, 6, 0), // 54: output 0x63
		thumbBKPT,       // 56: BKPT
	)
}

// Thumb encoders for the hand-assembled test images.
func movImm8(rd, imm int) uint16 { return uint16(0b00100<<11 | rd<<8 | imm) }
func addImm8(rd, imm int) uint16 { return uint16(0b00110<<11 | rd<<8 | imm) }
func subImm8(rd, imm int) uint16 { return uint16(0b00111<<11 | rd<<8 | imm) }
func lslImm(rd, rm, imm int) uint16 {
	return uint16(0b00000<<11 | imm<<6 | rm<<3 | rd)
}
func strImm(rt, rn, off int) uint16 {
	return uint16(0b01100<<11 | (off/4)<<6 | rn<<3 | rt)
}
func ldrImm(rt, rn, off int) uint16 {
	return uint16(0b01101<<11 | (off/4)<<6 | rn<<3 | rt)
}
func strhImm(rt, rn, off int) uint16 {
	return uint16(0b10000<<11 | (off/2)<<6 | rn<<3 | rt)
}
func thumbB(from, to int) uint16 { return 0xE000 | uint16(((to-(from+4))/2)&0x7FF) }
func thumbBNE(from, to int) uint16 {
	return 0xD100 | uint16(((to-(from+4))/2)&0xFF)
}
func thumbBL(from, to int) (uint16, uint16) {
	imm := uint32(int32(to - (from + 4)))
	s := (imm >> 24) & 1
	i1 := (imm >> 23) & 1
	i2 := (imm >> 22) & 1
	j1 := (^(i1 ^ s)) & 1
	j2 := (^(i2 ^ s)) & 1
	return uint16(0b11110<<11 | s<<10 | (imm>>12)&0x3FF),
		uint16(0b11<<14 | j1<<13 | 1<<12 | j2<<11 | (imm>>1)&0x7FF)
}

const (
	bxLR      = uint16(0b010001<<10 | 0b11<<8 | 14<<3)
	thumbBKPT = uint16(0xBE00)
)

// thumbImage wraps hand-assembled code into a bootable image: the vector
// table (initial SP, thumb entry 8) followed by ops at address 8, all of
// it TEXT, with an empty data section.
func thumbImage(ops ...uint16) *ccc.Image {
	img := make([]byte, 8+2*len(ops))
	binary.LittleEndian.PutUint32(img[0:], armsim.MemSize-16) // initial SP
	binary.LittleEndian.PutUint32(img[4:], 8|1)               // entry (thumb)
	for i, op := range ops {
		binary.LittleEndian.PutUint16(img[8+2*i:], op)
	}
	end := uint32(len(img))
	return &ccc.Image{
		Bytes:     img,
		TextStart: 8,
		TextEnd:   end,
		DataStart: end,
		DataEnd:   end,
		Entry:     8 | 1,
		InitialSP: armsim.MemSize - 16,
	}
}

func TestSelfModifyingTextIntermittent(t *testing.T) {
	img := selfModImage()

	// Continuous oracle: the patch must take effect (7 then 0x63). This
	// also covers the predecode cache on the plain machine.
	cm := armsim.NewMachine()
	if err := cm.Boot(img.Bytes); err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Run(1_000_000); err != nil {
		t.Fatalf("continuous run: %v", err)
	}
	want := []uint32{7, 0x63}
	if len(cm.Mem.Outputs) != len(want) || cm.Mem.Outputs[0] != want[0] || cm.Mem.Outputs[1] != want[1] {
		t.Fatalf("continuous outputs = %#v, want %#v (patch not applied?)", cm.Mem.Outputs, want)
	}

	cfg := clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll}

	// Without power failures: the text write must force a checkpoint (it is
	// not the section's opening access thanks to the LDR before it).
	st := runIntermittent(t, img, cfg, power.Always{}, 0)
	if !outputsEquivalent(want, st.Outputs) {
		t.Errorf("always-on outputs diverge: %v", st.Outputs)
	}
	if st.Reasons[clank.ReasonTextWrite] == 0 {
		t.Errorf("text write never forced a checkpoint (reasons: %v)", st.Reasons)
	}

	// With power failures: rollbacks across the patch must stay consistent —
	// once the patch lands in non-volatile memory no pre-patch code can
	// replay, and every post-rollback execution of the target must see the
	// freshly decoded patched instruction.
	restarts := 0
	for _, seed := range []int64{1, 7, 99} {
		supply := power.NewSupply(power.Exponential{Mean: 2000, Min: 500}, seed)
		st := runIntermittent(t, img, cfg, supply, 0)
		if !outputsEquivalent(want, st.Outputs) {
			t.Errorf("seed %d: outputs diverge: %v (stale decode after rollback?)", seed, st.Outputs)
		}
		restarts += st.Restarts
	}
	if restarts == 0 {
		t.Error("no power failures across any seed; test exercised nothing")
	}
}
