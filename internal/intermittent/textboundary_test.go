package intermittent

import (
	"encoding/binary"
	"testing"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/power"
)

// An unaligned TEXT end puts one word half in TEXT, half in data. Clank
// classifies at word granularity and rounds TextEnd up, so the straddling
// word is untracked under OptIgnoreText; the predecode pre-classifier and
// the machine's dynamic TEXT window take the same word bounds
// (clank.Config.TextWords, through the machine's textWindow) rather than
// re-deriving them from bytes, which is exactly the divergence
// this test pins: a byte-bounds classifier would call byte TextEnd (inside
// the straddling word) tracked data and the two engines would disagree on
// Read-first occupancy.
//
// textBoundaryImage (entry = 8, TextEnd declared 42 — two bytes into the
// word at 40):
//
//	 8: MOVS r5, #40            ; base of the straddling word
//	10: LDR  r0, [pc, #7*4]     ; literal at 40: pre-classified TEXT load
//	12: LDRH r1, [r5, #2]       ; byte 42 = byte TextEnd, same word: TEXT
//	14: LDR  r2, [r5, #4]       ; word 11: first data word (RF slot 1)
//	16: LDR  r3, [r5, #8]       ; RF slot 2
//	18: LDR  r4, [r5, #12]      ; RF slot 3
//	20: MOVS r6, #1
//	22: LSLS r6, r6, #30        ; output port
//	24: ADDS r0, r0, r1
//	26: ADDS r0, r0, r2
//	28: ADDS r0, r0, r3
//	30: ADDS r0, r0, r4
//	32: STR  r0, [r6]           ; output the sum of all five loads
//	34: BKPT
//	36: (pad)
//	40: .word 0x00C0FFEE        ; straddling word: bytes 40-41 are "TEXT"
//	44: .word 0x11111111
//	48: .word 0x22222222
//	52: .word 0x33333333
func textBoundaryImage() *ccc.Image {
	movImm8 := func(rd, imm int) uint16 { return uint16(0b00100<<11 | rd<<8 | imm) }
	lslImm := func(rd, rm, imm int) uint16 { return uint16(0b00000<<11 | imm<<6 | rm<<3 | rd) }
	ldrLit := func(rt, imm8 int) uint16 { return uint16(0b01001<<11 | rt<<8 | imm8) }
	ldrImm := func(rt, rn, off int) uint16 { return uint16(0b01101<<11 | (off/4)<<6 | rn<<3 | rt) }
	ldrhImm := func(rt, rn, off int) uint16 { return uint16(0b10001<<11 | (off/2)<<6 | rn<<3 | rt) }
	strImm := func(rt, rn, off int) uint16 { return uint16(0b01100<<11 | (off/4)<<6 | rn<<3 | rt) }
	addReg := func(rd, rn, rm int) uint16 { return uint16(0b0001100<<9 | rm<<6 | rn<<3 | rd) }
	ops := []uint16{
		movImm8(5, 40),   //  8
		ldrLit(0, 7),     // 10: ((10+4)&^3) + 7*4 = 40
		ldrhImm(1, 5, 2), // 12
		ldrImm(2, 5, 4),  // 14
		ldrImm(3, 5, 8),  // 16
		ldrImm(4, 5, 12), // 18
		movImm8(6, 1),    // 20
		lslImm(6, 6, 30), // 22
		addReg(0, 0, 1),  // 24
		addReg(0, 0, 2),  // 26
		addReg(0, 0, 3),  // 28
		addReg(0, 0, 4),  // 30
		strImm(0, 6, 0),  // 32
		0xBE00,           // 34: BKPT
		0x0000,           // 36: pad
	}
	img := make([]byte, 56)
	binary.LittleEndian.PutUint32(img[0:], armsim.MemSize-16)
	binary.LittleEndian.PutUint32(img[4:], 8|1)
	for i, op := range ops {
		binary.LittleEndian.PutUint16(img[8+2*i:], op)
	}
	binary.LittleEndian.PutUint32(img[40:], 0x00C0FFEE)
	binary.LittleEndian.PutUint32(img[44:], 0x11111111)
	binary.LittleEndian.PutUint32(img[48:], 0x22222222)
	binary.LittleEndian.PutUint32(img[52:], 0x33333333)
	return &ccc.Image{
		Bytes:     img,
		TextStart: 8,
		TextEnd:   42, // unaligned: straddles the word at 40
		DataStart: 40,
		DataEnd:   56,
		Entry:     8 | 1,
		InitialSP: armsim.MemSize - 16,
	}
}

func TestTextBoundaryStraddlingWord(t *testing.T) {
	img := textBoundaryImage()

	// Continuous oracle for the output value (in particular, the literal
	// load of the straddling word must read real memory through the
	// pre-classified fast path).
	cm := armsim.NewMachine()
	if err := cm.Boot(img.Bytes); err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Run(1_000_000); err != nil {
		t.Fatalf("continuous run: %v", err)
	}
	want := uint32(0x00C0FFEE + 0x00C0 + 0x11111111 + 0x22222222 + 0x33333333)
	if len(cm.Mem.Outputs) != 1 || cm.Mem.Outputs[0] != want {
		t.Fatalf("continuous outputs = %#v, want [%#x]", cm.Mem.Outputs, want)
	}

	// Exactly three reads are tracked (words 11, 12, 13): the literal load
	// of word 10 and the halfword read at byte TextEnd both land in the
	// straddling word, which clank's rounded-up bound classifies TEXT.
	base := clank.Config{WriteFirst: 2, WriteBack: 2, Opts: clank.OptIgnoreText,
		TextStart: img.TextStart, TextEnd: img.TextEnd}

	fits := base
	fits.ReadFirst = 3
	st := runIntermittent(t, img, fits, power.Always{}, 0)
	if !outputsEquivalent([]uint32{want}, st.Outputs) {
		t.Errorf("RF=3 outputs = %#v, want [%#x]", st.Outputs, want)
	}
	if n := st.Reasons[clank.ReasonRFOverflow]; n != 0 {
		t.Errorf("RF=3 run overflowed %d times: a TEXT-classified read took an RF slot", n)
	}

	// One slot fewer must overflow: pins that the three data words really
	// are tracked (a classifier calling word 11 TEXT would hide this).
	tight := base
	tight.ReadFirst = 2
	st = runIntermittent(t, img, tight, power.Always{}, 0)
	if !outputsEquivalent([]uint32{want}, st.Outputs) {
		t.Errorf("RF=2 outputs = %#v, want [%#x]", st.Outputs, want)
	}
	if st.Reasons[clank.ReasonRFOverflow] == 0 {
		t.Error("RF=2 run never overflowed: tracked-read accounting is wrong")
	}

	// And the whole thing survives power failures: every section re-derives
	// the same classification, so outputs stay equivalent.
	restarts := 0
	for _, seed := range []int64{3, 11} {
		supply := power.NewSupply(power.Exponential{Mean: 300, Min: 60}, seed)
		st := runIntermittent(t, img, fits, supply, 0)
		if !outputsEquivalent([]uint32{want}, st.Outputs) {
			t.Errorf("seed %d: outputs = %#v, want [%#x]", seed, st.Outputs, want)
		}
		restarts += st.Restarts
	}
	if restarts == 0 {
		t.Error("no power failures across any seed; intermittent leg exercised nothing")
	}
}
