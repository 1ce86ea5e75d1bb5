package refmon

import (
	"strconv"
	"testing"
	"testing/quick"
)

// checkWord compares every query the two monitors answer about word.
func checkWord(t *testing.T, step int, m *Monitor, ref *mapModel, word uint32) {
	t.Helper()
	if g, w := m.ReadDominated(word), ref.ReadDominated(word); g != w {
		t.Fatalf("step %d: ReadDominated(%#x) = %v, map model %v", step, word, g, w)
	}
	if g, w := m.WriteDominated(word), ref.WriteDominated(word); g != w {
		t.Fatalf("step %d: WriteDominated(%#x) = %v, map model %v", step, word, g, w)
	}
	if g, w := m.Tracked(), ref.Tracked(); g != w {
		t.Fatalf("step %d: Tracked() = %d, map model %d", step, g, w)
	}
}

// checkWrite applies the same write to both monitors and compares the
// returned violations field by field.
func checkWrite(t *testing.T, step int, m *Monitor, ref *mapModel, word, value, pc uint32) {
	t.Helper()
	g, w := m.WriteNV(word, value, pc), ref.WriteNV(word, value, pc)
	if (g == nil) != (w == nil) || (g != nil && *g != *w) {
		t.Fatalf("step %d: WriteNV(%#x, %d, %#x) = %+v, map model %+v", step, word, value, pc, g, w)
	}
}

// runMonitorStream decodes data into monitor operations and checks the
// epoch-stamped table against the map model after each one. Every op
// starts with a control byte c:
//
//	c&7     0-2 ReadNV, 3-5 WriteNV, 6 Reset, 7 burst
//	c&8     wide word space: the word comes from two more bytes and c's
//	        high nibble (20 bits, spread over the whole uint32 range);
//	        otherwise the word is c>>4 (16 words, so sets collide)
//
// then one byte whose low two bits are the value (four values, so false
// writes and first-read pinning both happen). A burst touches 1..64
// consecutive words from the op's word, reading or writing by the value
// byte's bit 2, which drives the table through several growths inside one
// section.
func runMonitorStream(t *testing.T, data []byte) {
	t.Helper()
	m, ref := New(), newMapModel()
	touched := map[uint32]bool{}
	for step := 0; len(data) >= 2; step++ {
		c, vb := data[0], data[1]
		data = data[2:]
		word := uint32(c >> 4)
		if c&8 != 0 {
			if len(data) < 2 {
				return
			}
			word = (uint32(data[0]) | uint32(data[1])<<8 | uint32(c>>4)<<16) * 0x1001
			data = data[2:]
		}
		value := uint32(vb & 3)
		pc := uint32(step) << 2
		switch c & 7 {
		case 0, 1, 2:
			m.ReadNV(word, value)
			ref.ReadNV(word, value)
		case 3, 4, 5:
			checkWrite(t, step, m, ref, word, value, pc)
		case 6:
			m.Reset()
			ref.Reset()
			for w := range touched {
				checkWord(t, step, m, ref, w)
			}
			clear(touched)
		case 7:
			n := uint32(vb>>3)%64 + 1
			for i := uint32(0); i < n; i++ {
				w := word + i
				if vb&4 != 0 {
					checkWrite(t, step, m, ref, w, value, pc)
				} else {
					m.ReadNV(w, value)
					ref.ReadNV(w, value)
				}
				touched[w] = true
			}
		}
		touched[word] = true
		checkWord(t, step, m, ref, word)
	}
	for w := range touched {
		checkWord(t, -1, m, ref, w)
	}
}

// FuzzMonitorVsMap is the differential fuzz target for the epoch-stamped
// table: arbitrary interleavings of reads, writes, resets and bursts over
// a narrow and a wide word space must agree with the two-map model on
// every violation and every classification.
func FuzzMonitorVsMap(f *testing.F) {
	// Read-then-write WAR, false write, write-dominated read.
	f.Add([]byte{0x10, 1, 0x13, 1, 0x13, 2, 0x23, 0, 0x20, 1, 0x23, 3})
	// Violation, reset, same write is legal afterwards.
	f.Add([]byte{0x50, 1, 0x53, 2, 0x06, 0, 0x53, 2, 0x50, 0})
	// Wide words: bursts grow the table, reset, grow again.
	f.Add([]byte{0x0F, 0xF8, 0x00, 0x10, 0x0F, 0xFC, 0x00, 0x10, 0x0E, 0, 0x0F, 0x01, 0x00, 0x20, 0x0B, 1, 0x34, 0x12})
	// Many resets between tiny sections after one large one.
	f.Add([]byte{0x8F, 0xF8, 1, 1, 0x06, 0, 0x80, 1, 0x06, 0, 0x83, 2, 0x06, 0, 0x80, 3, 0x83, 0})
	f.Fuzz(runMonitorStream)
}

// TestQuickMonitorVsMap runs the fuzz body over random streams so plain
// `go test` exercises the differential without the fuzzer.
func TestQuickMonitorVsMap(t *testing.T) {
	prop := func(data []byte) bool {
		runMonitorStream(t, data)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestEpochWrapClearsTable sets the epoch just below the wrap and resets
// across it. Slots stamped in epoch 1 long ago would alias the restarted
// epoch 1 if the wrap did not clear the table for real.
func TestEpochWrapClearsTable(t *testing.T) {
	m, ref := New(), newMapModel()
	m.ReadNV(5, 1) // stamped epoch 1; must never resurface
	m.WriteNV(6, 1, 0)
	// Jump to the state after epochWrap-3 Resets.
	m.epoch = epochWrap - 2
	m.live = 0
	for step := 0; step < 4; step++ {
		for w := uint32(0); w < 12; w++ {
			checkWord(t, step, m, ref, w)
		}
		if step >= 2 { // past the wrap: words 5 and 6 are fresh
			checkWrite(t, step, m, ref, 5, 2, 0x10)
			m.ReadNV(6, 3)
			ref.ReadNV(6, 3)
			checkWrite(t, step, m, ref, 6, 4, 0x14)
		}
		w := uint32(8 + step)
		m.ReadNV(w, 9)
		ref.ReadNV(w, 9)
		checkWrite(t, step, m, ref, w, 10, 0x18)
		m.Reset()
		ref.Reset()
	}
	if m.epoch != 3 {
		t.Fatalf("epoch after wrap = %d, want 3", m.epoch)
	}
}

// TestGrowMidSectionAfterResets leaves stale entries of many earlier
// sections throughout the table, then grows it several times inside one
// section: growth must carry over exactly the current section's words.
func TestGrowMidSectionAfterResets(t *testing.T) {
	m, ref := New(), newMapModel()
	for s := uint32(0); s < 1000; s++ {
		for i := uint32(0); i < 10; i++ {
			w := s*7 + i
			if i&1 == 0 {
				m.ReadNV(w, s)
				ref.ReadNV(w, s)
			} else {
				checkWrite(t, int(s), m, ref, w, s, 0)
			}
		}
		m.Reset()
		ref.Reset()
	}
	before := len(m.slots)
	const n = 5000
	for i := uint32(0); i < n; i++ {
		w := i * 3
		switch i % 3 {
		case 0:
			m.ReadNV(w, i)
			ref.ReadNV(w, i)
		case 1:
			checkWrite(t, int(i), m, ref, w, i, 0)
		case 2:
			m.ReadNV(w, i)
			ref.ReadNV(w, i)
			checkWrite(t, int(i), m, ref, w, i+1, 4) // WAR violation
		}
		if i%251 == 0 {
			for j := uint32(0); j <= i; j += 17 {
				checkWord(t, int(i), m, ref, j*3)
				checkWord(t, int(i), m, ref, j*3+1) // untouched
			}
		}
	}
	if len(m.slots) <= before {
		t.Fatalf("table did not grow mid-section: %d slots before and after", before)
	}
	if m.Tracked() != n {
		t.Fatalf("Tracked() = %d after %d distinct words", m.Tracked(), n)
	}
	for w := uint32(0); w < 7*1000+10; w++ {
		checkWord(t, -1, m, ref, w)
	}
}

// TestMonitorSteadyStateZeroAlloc pins the hot-path contract: once the
// table has grown to the largest section, ReadNV, WriteNV and Reset
// allocate nothing.
func TestMonitorSteadyStateZeroAlloc(t *testing.T) {
	m := New()
	for w := uint32(0); w < 4096; w++ {
		m.ReadNV(w, w)
	}
	m.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		for w := uint32(0); w < 4096; w += 3 {
			m.ReadNV(w, w)
			if v := m.WriteNV(w, w, 0); v != nil { // false write
				t.Fatal(v)
			}
			if v := m.WriteNV(w+1, 7, 0); v != nil {
				t.Fatal(v)
			}
		}
		m.Reset()
	})
	if allocs != 0 {
		t.Errorf("steady-state monitor allocates %.1f times per section, want 0", allocs)
	}
}

// monitorLike is the surface BenchmarkMonitor drives, so the map model can
// be timed on the same section pattern.
type monitorLike interface {
	Reset()
	ReadNV(word, value uint32)
	WriteNV(word, value, pc uint32) *Violation
}

// benchSections runs one section of prev words, then b.N sections of
// 1..8 words, each ended by a Reset. The time per op is the cost of one
// small section, which must not depend on prev.
func benchSections(b *testing.B, m monitorLike, prev uint32) {
	for w := uint32(0); w < prev; w++ {
		m.ReadNV(w, w)
	}
	m.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := uint32(i) * 8
		for k := uint32(0); k <= uint32(i)&7; k++ {
			w := base + k
			m.ReadNV(w, w)
			m.WriteNV(w+1, w+1, 0)
		}
		m.Reset()
	}
}

// BenchmarkMonitor times tiny sections after one large one — the pattern
// that made the two-map monitor's Reset cost O(largest section) through
// map clear(). The map sub-benchmarks time that model for comparison.
func BenchmarkMonitor(b *testing.B) {
	for _, prev := range []uint32{8, 4096} {
		b.Run("table/prev="+strconv.Itoa(int(prev)), func(b *testing.B) { benchSections(b, New(), prev) })
		b.Run("map/prev="+strconv.Itoa(int(prev)), func(b *testing.B) { benchSections(b, newMapModel(), prev) })
	}
}
