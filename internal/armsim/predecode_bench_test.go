package armsim

import (
	"testing"
)

// The simulator's hot loop is CPU.Step. These benchmarks compare the
// predecoded jump-table dispatch against the reference fetch-and-switch
// interpreter (reference_test.go; the "legacy" sub-benchmark) on a
// steady-state instruction mix, and pin the steady state to zero
// allocations (BENCH_armsim.json records the numbers).

// benchLoopOps is an infinite loop with a representative mix: ALU ops, a
// shift, a store, a load, a compare, a taken conditional branch, and an
// unconditional back-branch (8 instructions per trip, no halt).
func benchLoopOps() []uint16 {
	return []uint16{
		movImm8(4, 0x80), //  8: r4 = data address
		// loop:
		addImm8(0, 1),                         // 10
		uint16(0b00000<<11 | 3<<6 | 0<<3 | 2), // 12: LSLS r2, r0, #3
		uint16(0b01100<<11 | 0<<6 | 4<<3 | 2), // 14: STR r2, [r4]
		uint16(0b01101<<11 | 0<<6 | 4<<3 | 3), // 16: LDR r3, [r4]
		uint16(0b00101<<11 | 3<<8 | 0),        // 18: CMP r3, #0
		0xD100 | uint16(0),                    // 20: BNE .+4 -> 24
		addImm8(5, 1),                         // 22: (skipped while r3 != 0)
		0xE000 | uint16((10-(24+4))/2&0x7FF),  // 24: B loop
	}
}

func benchStepMachine(b *testing.B) *Machine {
	b.Helper()
	m := NewMachine()
	if err := m.Boot(asmImage(benchLoopOps()...)); err != nil {
		b.Fatal(err)
	}
	// Warm up: one trip through the loop decodes every instruction.
	for i := 0; i < 16; i++ {
		if err := m.CPU.Step(); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// BenchmarkStepLoop measures ns per executed instruction in the simulator's
// innermost loop: the predecoded Step, the reference interpreter ("legacy",
// the denominator of the predecode speedup) and the fused engine.
func BenchmarkStepLoop(b *testing.B) {
	b.Run("predecode", func(b *testing.B) {
		m := benchStepMachine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.CPU.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/insn")
	})
	b.Run("legacy", func(b *testing.B) {
		m := newRefMachine()
		if err := m.Boot(asmImage(benchLoopOps()...)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.CPU.stepRef(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/insn")
	})
	// The fused engine executes whole basic blocks per StepFused call; a
	// 1024-cycle budget keeps each call inside the run-chaining fast path
	// while exercising the budget gate like the intermittent driver does.
	b.Run("fused", func(b *testing.B) {
		m := benchStepMachine(b)
		for i := 0; i < 16; i++ {
			if err := m.CPU.StepFused(1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		start := m.CPU.Insns
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.CPU.StepFused(1024); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.CPU.Insns-start), "ns/insn")
	})
}

// TestStepNoAllocs pins the steady-state Step loop to zero heap allocations
// per instruction: the decoded POP/LDM paths use fixed arrays and the cache
// is hit-only once warm, so nothing may escape.
func TestStepNoAllocs(t *testing.T) {
	m := NewMachine()
	if err := m.Boot(asmImage(benchLoopOps()...)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := m.CPU.Step(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			if err := m.CPU.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Step loop allocates: %v allocs per 1000 instructions, want 0", avg)
	}
}

// TestPushPopNoAllocs covers the register-list paths (the reference decoder's
// only allocation site) through the predecoded dispatch: PUSH/POP in a loop
// must not allocate either.
func TestPushPopNoAllocs(t *testing.T) {
	ops := []uint16{
		// loop: PUSH {r0-r3,lr}; POP {r0-r3}; POP {pc}... popping PC would
		// jump; keep it simple: PUSH {r0-r3}; POP {r0-r3}; B loop
		uint16(0b1011010<<9 | 0x0F),         //  8: PUSH {r0-r3}
		uint16(0b1011110<<9 | 0x0F),         // 10: POP {r0-r3}
		0xE000 | uint16((8-(12+4))/2&0x7FF), // 12: B loop
	}
	m := NewMachine()
	if err := m.Boot(asmImage(ops...)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := m.CPU.Step(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 300; i++ {
			if err := m.CPU.Step(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Errorf("PUSH/POP loop allocates: %v allocs per 300 instructions, want 0", avg)
	}
}

// callReturnOps is an infinite call/return loop in the shape ccc emits for
// every function: BL into a callee whose prologue is PUSH {r4-r7,lr}, a
// short body with a stack spill and reload, and a POP {r4-r7,pc} epilogue
// (12 instructions and 12 data accesses per trip, 10 of them in the two
// multi-register transfers). The whole loop runs fused.
func callReturnOps() []uint16 {
	bl1, bl2 := encodeBL(18 - (10 + 4))
	return []uint16{
		// loop:
		uint16(0b00000<<11 | 0<<6 | 0<<3 | 1), //  8: MOVS r1, r0
		bl1, bl2,                              // 10: BL fn
		addImm8(0, 1),                       // 14: ADDS r0, #1
		0xE000 | uint16((8-(16+4))/2&0x7FF), // 16: B loop
		// fn:
		uint16(0b1011010<<9 | 1<<8 | 0xF0),     // 18: PUSH {r4-r7, lr}
		uint16(0b00000<<11 | 0<<6 | 1<<3 | 4),  // 20: MOVS r4, r1
		addImm8(4, 3),                          // 22: ADDS r4, #3
		uint16(0b00000<<11 | 2<<6 | 4<<3 | 5),  // 24: LSLS r5, r4, #2
		uint16(0b0001100<<9 | 4<<6 | 5<<3 | 6), // 26: ADDS r6, r5, r4
		uint16(0b10010<<11 | 6<<8 | 0),         // 28: STR r6, [sp, #0]
		uint16(0b10011<<11 | 7<<8 | 0),         // 30: LDR r7, [sp, #0]
		uint16(0b1011110<<9 | 1<<8 | 0xF0),     // 32: POP {r4-r7, pc}
	}
}

// BenchmarkStepLoopCallReturn measures the fused engine's ns per executed
// instruction on callReturnOps, on the bare Memory bus and on a monitored
// bus that neither vetoes nor yields; both legs take every access through
// the Bus interface.
func BenchmarkStepLoopCallReturn(b *testing.B) {
	for _, sub := range []struct {
		name      string
		monitored bool
	}{{"bare", false}, {"monitored", true}} {
		b.Run(sub.name, func(b *testing.B) {
			m := NewMachine()
			if sub.monitored {
				var bus *monitorBus
				m, bus = newMonitoredMachine(true)
				bus.record = false
				bus.rule = func(uint32) (veto, yield bool) { return false, false }
			}
			if err := m.Boot(asmImage(callReturnOps()...)); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 32; i++ {
				if err := m.CPU.StepFused(1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			start := m.CPU.Insns
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.CPU.StepFused(1024); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(m.CPU.Insns-start), "ns/insn")
		})
	}
}
