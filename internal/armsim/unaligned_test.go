package armsim

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/accfilter"
)

// unalignedLeg is a CPU on one of the three data paths, with everything an
// access can move besides registers and memory.
type unalignedLeg struct {
	cpu *CPU
	mem *Memory
	bus *countBus // nil on the bare leg
	rig *wbRig    // the port leg's port
}

// observed is the non-memory state an access can move on any leg: the
// architectural state, the bus's access counts, and the port's access
// count, filter tags, index and Write-back slots.
type observed struct {
	r             [16]uint32
	psr           uint32
	cycle, insns  uint64
	loads, stores int
	accesses      int
	rd, wr        accfilter.Tags
	idx           accfilter.Index
	slots         [4]accfilter.Slot
}

func (l *unalignedLeg) observe() observed {
	o := observed{r: l.cpu.R, psr: l.cpu.PSR(), cycle: l.cpu.Cycle, insns: l.cpu.Insns}
	if l.bus != nil {
		o.loads, o.stores = l.bus.loads, l.bus.stores
	}
	if r := l.rig; r != nil {
		o.accesses, o.rd, o.wr, o.idx, o.slots = r.accesses, r.rd, r.wr, r.idx, r.slots
	}
	return o
}

// newUnalignedLegs builds a bare CPU (the Memory fast path), a monitored
// one (every access crosses the Bus) and one whose access port certifies
// the words from base-8 to base+8: read and write filter hits on all but
// the lowest, which sits in a dirty Write-back slot. All three run
// predecoded and fused, as production CPUs do.
func newUnalignedLegs(base uint32) map[string]*unalignedLeg {
	bareMem := NewMemory()
	bare := &unalignedLeg{cpu: NewCPU(bareMem), mem: bareMem}
	busMem := NewMemory()
	bus := &countBus{mem: busMem}
	mon := &unalignedLeg{cpu: NewCPU(bus), mem: busMem, bus: bus}
	r := newWBRig()
	port := &unalignedLeg{cpu: r.cpu, mem: r.mem, bus: r.bus, rig: r}
	for w := base>>2 - 1; w <= base>>2+1; w++ {
		r.rd[w&accfilter.Mask], r.wr[w&accfilter.Mask] = w, w
	}
	r.put(base>>2-2, 0, 0x5A5A5A5A, true)
	for _, l := range []*unalignedLeg{bare, mon, port} {
		l.cpu.EnablePredecode(l.mem)
	}
	return map[string]*unalignedLeg{"bare": bare, "monitored": mon, "port": port}
}

// TestUnalignedAccessFaults pins ARMv6-M's alignment rule on every data
// path: a word or halfword load or store at an address that is not a
// multiple of its size, and a PUSH from a misaligned SP, fail with
// ErrUnaligned on a bare, a monitored and a port-equipped CPU, and leave
// registers, flags, counters, memory, the bus and port access counts and
// the port's detector state exactly as they were. The same instruction
// at an aligned address completes on every leg.
func TestUnalignedAccessFaults(t *testing.T) {
	const (
		base = 0x8000
		text = 0x100
	)
	cases := []struct {
		name      string
		op        uint16
		reg       int    // the address register: r1, or SP for PUSH
		bad, good uint32 // its misaligned and aligned values
	}{
		{"LDR", uint16(0b01101<<11 | 1<<3 | 0), 1, base + 2, base},           // LDR r0, [r1]
		{"STR", uint16(0b01100<<11 | 1<<3 | 0), 1, base + 1, base},           // STR r0, [r1]
		{"LDRH", uint16(0b10001<<11 | 1<<3 | 0), 1, base + 1, base},          // LDRH r0, [r1]
		{"STRH", uint16(0b10000<<11 | 1<<3 | 0), 1, base + 3, base},          // STRH r0, [r1]
		{"PUSH", uint16(0b1011010<<9 | 1<<8 | 0x11), SP, base + 6, base + 4}, // PUSH {r0, r4, lr}
	}
	for _, tc := range cases {
		for _, aligned := range []bool{false, true} {
			for name, l := range newUnalignedLegs(base) {
				l.mem.WriteWord(text, opBKPT<<16|uint32(tc.op))
				for a := uint32(base - 16); a < base+16; a += 4 {
					l.mem.WriteWord(a, 0x01010101*(a&0xFF))
				}
				l.cpu.R = [16]uint32{0: 0xCAFEF00D, 4: 0x44, SP: base + 64, LR: 0x201, PC: text}
				l.cpu.R[tc.reg] = tc.bad
				if aligned {
					l.cpu.R[tc.reg] = tc.good
				}
				before, mem := l.observe(), bytes.Clone(l.mem.Bytes())
				err := l.cpu.StepFused(1000)
				if aligned {
					if err != nil && !errors.Is(err, ErrHalted) {
						t.Errorf("%s on %s at aligned %#x: %v", tc.name, name, tc.good, err)
					}
					continue
				}
				if !errors.Is(err, ErrUnaligned) {
					t.Errorf("%s on %s at %#x: err = %v, want ErrUnaligned", tc.name, name, tc.bad, err)
				}
				if after := l.observe(); after != before {
					t.Errorf("%s on %s: the fault moved\n  %+v\nto %+v", tc.name, name, before, after)
				}
				if !bytes.Equal(l.mem.Bytes(), mem) {
					t.Errorf("%s on %s: the fault changed memory", tc.name, name)
				}
			}
		}
	}
}
