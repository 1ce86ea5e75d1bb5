package armsim

import "testing"

func TestRecorderWordNormalization(t *testing.T) {
	// STRB to offset 2 of a word must record the whole containing word
	// with correct before/after values.
	ops := []uint16{
		movImm8(2, 0x40), // address base
		movImm8(0, 0x11),
		uint16(0b0110<<12 | 0<<11 | 0<<6 | 2<<3 | 0), // STR r0, [r2] -> word = 0x11
		movImm8(1, 0xAB),
		uint16(0b0111<<12 | 0<<11 | 2<<6 | 2<<3 | 1), // STRB r1, [r2, #2]
		uint16(0b0110<<12 | 1<<11 | 0<<6 | 2<<3 | 4), // LDR r4, [r2]
		opBKPT,
	}
	trace, _, err := CollectTrace(asmImage(ops...), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 3 {
		t.Fatalf("recorded %d accesses, want 3: %+v", len(trace), trace)
	}
	if !trace[0].Write || trace[0].Addr != 0x40 || trace[0].Value != 0x11 || trace[0].Prev != 0 {
		t.Errorf("access 0 = %+v", trace[0])
	}
	if !trace[1].Write || trace[1].Addr != 0x40 || trace[1].Value != 0x00AB0011 || trace[1].Prev != 0x11 {
		t.Errorf("byte store not word-normalized: %+v", trace[1])
	}
	if trace[2].Write || trace[2].Value != 0x00AB0011 {
		t.Errorf("read access = %+v", trace[2])
	}
}

func TestRecorderCycleStampsMonotonic(t *testing.T) {
	ops := []uint16{
		movImm8(2, 0x40),
		movImm8(0, 1),
	}
	for i := 0; i < 20; i++ {
		ops = append(ops, uint16(0b0110<<12|0<<11|0<<6|2<<3|0)) // STR
		ops = append(ops, uint16(0b0110<<12|1<<11|0<<6|2<<3|1)) // LDR
	}
	ops = append(ops, opBKPT)
	trace, total, err := CollectTrace(asmImage(ops...), 10000)
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for i, a := range trace {
		if a.Cycle < prev {
			t.Fatalf("access %d cycle %d < previous %d", i, a.Cycle, prev)
		}
		prev = a.Cycle
	}
	if prev > total {
		t.Errorf("last stamp %d beyond total %d", prev, total)
	}
}

func TestRecorderOutputEvents(t *testing.T) {
	ops := []uint16{
		movImm8(0, 0x40),
		uint16(0b00000<<11 | 24<<6 | 0<<3 | 0), // LSLS r0, #24 -> 0x40000000
		movImm8(1, 0x77),
		uint16(0b0110<<12 | 0<<11 | 0<<6 | 0<<3 | 1), // STR r1, [r0]
		opBKPT,
	}
	trace, _, err := CollectTrace(asmImage(ops...), 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 1 || !trace[0].Write || trace[0].Addr < MemSize || trace[0].Value != 0x77 {
		t.Fatalf("output event not recorded raw: %+v", trace)
	}
}

func TestBusFaults(t *testing.T) {
	mem := NewMemory()
	if _, err := mem.Load(MemSize+0x1000, 4, 0); err == nil {
		t.Error("load far outside memory must fault")
	}
	if err := mem.Store(MemSize+0x1000, 4, 1, 0); err == nil {
		t.Error("store far outside memory must fault")
	}
	if _, err := mem.Fetch16(MemSize); err == nil {
		t.Error("fetch outside memory must fault")
	}
}

func TestPSRRoundTrip(t *testing.T) {
	c := NewCPU(NewMemory())
	c.N, c.Z, c.C, c.V = true, false, true, false
	p := c.PSR()
	c.N, c.Z, c.C, c.V = false, true, false, true
	c.SetPSR(p)
	if !c.N || c.Z || !c.C || c.V {
		t.Errorf("PSR round trip lost flags: N=%v Z=%v C=%v V=%v", c.N, c.Z, c.C, c.V)
	}
}

func TestUndefinedInstructionReported(t *testing.T) {
	m := NewMachine()
	if err := m.Boot(asmImage(0xDE00 /* UDF */)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err == nil {
		t.Error("UDF must stop the machine with an error")
	}
}
