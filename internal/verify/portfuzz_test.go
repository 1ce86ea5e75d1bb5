package verify

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/intermittent"
	"repro/internal/power"
	"repro/internal/scheme"
)

// Thumb-1 register-offset loads and stores (LDR/STR Rt,[Rn,Rm] and their
// byte and halfword forms) and the PC-relative literal load.
const (
	t1Str  = 0b0101000
	t1Strh = 0b0101001
	t1Strb = 0b0101010
	t1Ldr  = 0b0101100
	t1Ldrh = 0b0101101
	t1Ldrb = 0b0101110
)

func t1MemReg(op, rt, rn, rm uint32) uint16 { return uint16(op<<9 | rm<<6 | rn<<3 | rt) }
func t1LdrLit(rt, imm uint32) uint16        { return uint16(0x4800 | rt<<8 | imm) }

const (
	portFuzzBase  uint32 = 0x8000  // the 32-word window
	portFuzzAlias        = 4 * 512 // its alias: same filter, index and certificate slots
	portFuzzMaxOp        = 48
	// portFuzzMaxWall bounds every run: a short supply can livelock a
	// section that never fits its on-time, and such a run ends in the
	// same wall-cycle error on both paths.
	portFuzzMaxWall = 200_000
)

// portFuzzOps are the op kinds a fuzz byte selects: the access size, whether
// it stores, and its register-offset opcode.
var portFuzzOps = [...]struct {
	size  uint32
	store bool
	op    uint32
}{
	{4, false, t1Ldr}, {4, true, t1Str},
	{1, false, t1Ldrb}, {1, true, t1Strb},
	{2, false, t1Ldrh}, {2, true, t1Strh},
}

// buildPortFuzzImage lowers fuzz bytes into a straight-line Thumb-1
// program of loads and stores over a 32-word window at portFuzzBase and its
// alias portFuzzAlias bytes up, repeated reps times. Each op is three
// bytes:
//
//	b0  kind: b0&7 < 6 picks portFuzzOps, 6 and 7 a TEXT literal load; bit 3
//	    stores r3 (the last loaded value, so false writes happen) instead
//	    of the immediate; bit 4 addresses the alias
//	b1  word (low five bits) and byte lane (bits 5-6), aligned down to
//	    the access size
//	b2  the stored immediate
//
// r0 and r1 hold the two bases; every address is MOV r4,#offset plus a
// base register, so no literal pool is needed and the only TEXT reads are
// the literal loads, which read the instruction words that follow them.
func buildPortFuzzImage(raw []byte, reps int) *ccc.Image {
	var text []byte
	emit := func(ins uint16) { text = append(text, byte(ins), byte(ins>>8)) }
	emit(t1MovImm(0, portFuzzBase>>8))
	emit(t1LslImm(0, 0, 8))
	emit(t1MovImm(1, (portFuzzBase+portFuzzAlias)>>8))
	emit(t1LslImm(1, 1, 8))
	emit(t1MovImm(3, 0))
	for r := 0; r < reps; r++ {
		for i := 0; i+3 <= len(raw) && i < 3*portFuzzMaxOp; i += 3 {
			b0, b1, b2 := uint32(raw[i]), uint32(raw[i+1]), uint32(raw[i+2])
			if b0&7 >= 6 {
				emit(t1LdrLit(3, b2&3))
				continue
			}
			k := portFuzzOps[b0&7]
			off := (4*(b1&31) + b1>>5&3) &^ (k.size - 1)
			base := b0 >> 4 & 1
			emit(t1MovImm(4, off))
			src := uint32(3)
			if k.store && b0&8 == 0 {
				emit(t1MovImm(5, b2))
				src = 5
			}
			emit(t1MemReg(k.op, src, base, 4))
		}
	}
	emit(t1Bkpt)
	for range 8 { // the last literal loads' targets stay inside TEXT
		emit(t1Nop)
	}
	return &ccc.Image{
		Bytes:     text,
		TextEnd:   uint32(len(text)),
		DataStart: portFuzzBase,
		DataEnd:   portFuzzBase + portFuzzAlias + 128,
		InitialSP: portFuzzBase - 4,
	}
}

// portFuzzConfigs are the detector configurations the selector byte picks
// among: tiny buffers that veto often, and roomier ones that keep filter
// hits alive across long sections.
var portFuzzConfigs = []clank.Config{
	{ReadFirst: 2, WriteFirst: 1, WriteBack: 1, Opts: clank.OptAll},
	{ReadFirst: 4, WriteFirst: 2, WriteBack: 2, AddrPrefix: 2, PrefixLowBits: 3, Opts: clank.OptAll},
	{ReadFirst: 16, WriteFirst: 8, WriteBack: 4, AddrPrefix: 4, PrefixLowBits: 6, Opts: clank.OptAll},
	{ReadFirst: 8, WriteFirst: 0, WriteBack: 4},
}

// portFuzzSchemes are the schemes with an access port, the privatizers with
// short periods and the smallest buffer so that commits and overflows
// land inside the short programs.
var portFuzzSchemes = []scheme.Factory{
	scheme.ClankFactory{},
	scheme.AlpacaFactory{TaskLen: 100, BufWords: 16},
	scheme.DiCAFactory{Interval: 150, BufWords: 16},
}

// portStop is everything a run exposes where it stopped.
type portStop struct {
	st       intermittent.Stats
	err      string
	insns    uint64
	tracked  int
	sections int
	mem      []uint32
}

func runPortStop(m *intermittent.Machine) portStop {
	st, err := m.Run()
	r := portStop{st: st, insns: m.Insns(), tracked: m.MonitorTracked(), sections: m.SectionAccesses()}
	if err != nil {
		r.err = err.Error()
	}
	for _, base := range []uint32{portFuzzBase, portFuzzBase + portFuzzAlias} {
		for a := base; a < base+128; a += 4 {
			r.mem = append(r.mem, m.MemWord(a))
		}
	}
	return r
}

// checkPortVsBus runs one fuzz input: for each scheme, a verified machine
// with its access port and the same scheme boxed (every access on the Bus)
// must agree at every MaxWallCycles stop — Stats, the error and any
// Violation text, retired instructions, the monitor's tracked words, the
// section access count and the window's NV memory.
func checkPortVsBus(t *testing.T, raw []byte, sel uint8) {
	if len(raw) < 3 {
		return
	}
	img := buildPortFuzzImage(raw, int(sel>>6)+1)
	cfg := portFuzzConfigs[int(sel)%len(portFuzzConfigs)]
	meanOn := []uint64{0, 150, 300, 600}[sel>>2&3]
	prog, err := intermittent.BuildSharedProgram(img, intermittent.Options{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for si, fac := range portFuzzSchemes {
		run := func(f scheme.Factory, bound uint64) portStop {
			o := intermittent.Options{Config: cfg, Scheme: f, Verify: true, MaxWallCycles: bound, ProgressDefault: 100}
			if meanOn > 0 {
				o.Supply = power.NewSupply(power.Exponential{Mean: meanOn, Min: 100}, int64(sel)+int64(si))
			}
			m, err := intermittent.NewMachineShared(img, o, prog)
			if err != nil {
				t.Fatal(err)
			}
			return runPortStop(m)
		}
		full := run(scheme.Boxed(fac), portFuzzMaxWall)
		const stops = 12
		for i := 1; i <= stops; i++ {
			bound := full.st.WallCycles * uint64(i) / stops
			want, got := run(scheme.Boxed(fac), bound), run(fac, bound)
			if d := got.diff(want); d != "" {
				t.Fatalf("%s, config %s, mean on %d, stop at %d wall cycles: %s", fac.Name(), cfg, meanOn, bound, d)
			}
		}
	}
}

// diff describes how got, the port leg, differs from want, the Bus leg.
func (got portStop) diff(want portStop) string {
	switch {
	case got.err != want.err:
		return fmt.Sprintf("error %q, Bus path %q", got.err, want.err)
	case !reflect.DeepEqual(got.st, want.st):
		return fmt.Sprintf("Stats diverge:\n  port %+v\n  bus  %+v", got.st, want.st)
	case got.insns != want.insns:
		return fmt.Sprintf("%d instructions retired, Bus path %d", got.insns, want.insns)
	case got.tracked != want.tracked:
		return fmt.Sprintf("the monitor tracks %d words, Bus path %d", got.tracked, want.tracked)
	case got.sections != want.sections:
		return fmt.Sprintf("%d section accesses, Bus path %d", got.sections, want.sections)
	}
	for i := range got.mem {
		if got.mem[i] != want.mem[i] {
			return fmt.Sprintf("NV word %d of the windows is %#x, Bus path %#x", i, got.mem[i], want.mem[i])
		}
	}
	return ""
}

// FuzzPortVsBus holds the access port, with the reference monitor's
// certificates, to the Bus path under Verify: random straight-line blocks
// of word, byte and halfword loads and stores over a 32-word window and
// its alias (which shares every direct-mapped slot: filter, index and
// certificate), plus TEXT literal loads, run under Clank, Alpaca and
// DiCA on continuous and intermittent power. Every stop must agree
// (checkPortVsBus).
func FuzzPortVsBus(f *testing.F) {
	// Read-modify-write of one word, then its false write.
	f.Add([]byte{0, 3, 0, 1, 3, 7, 8, 3, 0, 0, 3, 0, 9, 3, 0}, uint8(0))
	// A word and its alias, read and written alternately (slot collisions).
	f.Add([]byte{0, 5, 0, 16, 5, 0, 1, 5, 9, 17, 5, 9, 0, 5, 0, 16, 5, 0}, uint8(0x42))
	// Byte and halfword stores to every lane of two words, then word loads.
	f.Add([]byte{3, 2, 1, 3, 34, 2, 3, 66, 3, 3, 98, 4, 5, 3, 5, 5, 67, 6, 0, 2, 0, 0, 3, 0, 4, 66, 0, 2, 35, 0}, uint8(0x85))
	// A privatizer buffers a word and then its alias, which the monitor
	// already tracks but whose index slot collides, then reads the
	// unindexed alias back and stores it.
	f.Add([]byte{0x10, 3, 0, 1, 3, 5, 0x11, 3, 9, 0x10, 3, 0, 9, 7, 0}, uint8(0))
	// TEXT literal loads between reads and writes.
	f.Add([]byte{6, 0, 0, 0, 1, 0, 6, 0, 2, 1, 1, 5, 6, 0, 3, 0, 1, 0}, uint8(0xC7))
	// Long blocks over many words, repeated, on short supplies: one
	// spread over the window and its alias, one hammering six words
	// with every access kind.
	spread, hot := make([]byte, 0, 3*portFuzzMaxOp), make([]byte, 0, 3*portFuzzMaxOp)
	for i := 0; i < portFuzzMaxOp; i++ {
		spread = append(spread, byte(i*5), byte(i*7), byte(i*11))
		hot = append(hot, byte(i*13), byte(i%6|i<<5), byte(i))
	}
	f.Add(spread, uint8(0x4D))
	f.Add(hot, uint8(0xC4))
	f.Add(hot, uint8(0x8E))
	f.Fuzz(checkPortVsBus)
}
