package clank

import (
	"encoding/binary"
	"hash/crc32"
	"testing"
)

func testSlotRecord(seq uint32) SlotRecord {
	r := SlotRecord{
		PSR:      0xF0000000,
		Cycle:    0x1_2345_6789,
		Outputs:  7,
		Suppress: 2,
		Seq:      seq,
	}
	for i := range r.Regs {
		r.Regs[i] = uint32(0x1000*i) ^ seq
	}
	return r
}

// TestCRCWordMatchesStdlib pins the alloc-free word folder to the stdlib
// CRC32/IEEE over the same little-endian byte stream.
func TestCRCWordMatchesStdlib(t *testing.T) {
	words := []uint32{0, 1, 0xFFFFFFFF, 0xDEADBEEF, 0x80000001, 0x12345678}
	// A pseudo-random tail drives every byte lane through every table.
	for x, i := uint32(0x9E3779B9), 0; i < 4096; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		words = append(words, x)
	}
	crc, want := uint32(0), uint32(0)
	var b [4]byte
	for _, w := range words {
		crc = crcWord(crc, w)
		binary.LittleEndian.PutUint32(b[:], w)
		want = crc32.Update(want, crc32.IEEETable, b[:])
		if crc != want {
			t.Fatalf("after word %#x: crcWord chain %#x, stdlib %#x", w, crc, want)
		}
	}
}

func TestSlotRecordRoundTrip(t *testing.T) {
	want := testSlotRecord(42)
	var w [SlotRecWords]uint32
	EncodeSlot(w[:], want)
	got, st := DecodeSlot(w[:])
	if st != RecValid {
		t.Fatalf("fresh record decodes %v", st)
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	if _, st := DecodeSlotLoose(w[:]); st != RecValid {
		t.Fatalf("loose decoder rejects a valid record")
	}
	// Erased NV is empty, not corrupt.
	var zero [SlotRecWords]uint32
	if _, st := DecodeSlot(zero[:]); st != RecEmpty {
		t.Fatalf("all-zero region decodes %v, want empty", st)
	}
	// Any single flipped bit is detected.
	for i := 0; i < SlotRecWords; i++ {
		for bit := 0; bit < 32; bit += 7 {
			w[i] ^= 1 << bit
			if _, st := DecodeSlot(w[:]); st == RecValid {
				t.Fatalf("bit %d of word %d flipped but record still valid", bit, i)
			}
			w[i] ^= 1 << bit
		}
	}
}

// tearMasks is a small adversarial set: nothing lands, everything lands,
// and a spread of mid-word splits.
var tearMasks = []uint32{
	0, 0xFFFFFFFF, 0xFFFFFFFE, 0x00000001, 0x0000FFFF, 0xFFFF0000,
	0x55555555, 0xAAAAAAAA, 0x80000001,
}

// TestSlotDecodeNoFrankensteinRecords models the slot write sequence of an
// A/B commit — old record in place, new record written word-by-word in
// record order — cut at every (position × mask). Whatever the decoder
// accepts must be exactly the old or the new record, never a blend.
func TestSlotDecodeNoFrankensteinRecords(t *testing.T) {
	oldRec := testSlotRecord(5)
	newRec := testSlotRecord(7)
	var oldW, newW [SlotRecWords]uint32
	EncodeSlot(oldW[:], oldRec)
	EncodeSlot(newW[:], newRec)
	for cut := 0; cut < SlotRecWords; cut++ {
		for _, mask := range tearMasks {
			var w [SlotRecWords]uint32
			copy(w[:], oldW[:])
			for i := 0; i < cut; i++ {
				w[i] = newW[i]
			}
			w[cut] = oldW[cut]&^mask | newW[cut]&mask
			rec, st := DecodeSlot(w[:])
			if st != RecValid {
				continue
			}
			if rec != oldRec && rec != newRec {
				t.Fatalf("cut %d mask %#x: decoder accepted a blended record %+v", cut, mask, rec)
			}
		}
	}
}

func buildJournal(entries [][2]uint32, seq uint32) []uint32 {
	w := make([]uint32, JournalWords(len(entries)))
	for i, e := range entries {
		w[JournalEntryWord(i, 0)] = e[0]
		w[JournalEntryWord(i, 1)] = e[1]
	}
	w[JnlLenWord] = uint32(len(entries))
	w[JnlSeqWord] = seq
	w[JnlCRCWord] = JournalCRC(w, len(entries))
	return w
}

func TestJournalRoundTripAndTornClear(t *testing.T) {
	entries := [][2]uint32{{0x100, 0xdead}, {0x204, 0xbeef}, {0x30c, 0x1234}}
	w := buildJournal(entries, 9)
	count, seq, st := DecodeJournal(w)
	if st != RecValid || count != len(entries) || seq != 9 {
		t.Fatalf("decode = (%d, %d, %v)", count, seq, st)
	}
	for i, e := range entries {
		if a, v := JournalEntry(w, i); a != e[0] || v != e[1] {
			t.Fatalf("entry %d = (%#x, %#x), want %v", i, a, v, e)
		}
	}
	// The clear write (length := 0) torn at any mask yields a disarmed,
	// detectably-corrupt, or byte-identical record — never a different
	// valid one. That is the clank half of recovery idempotence: however
	// often recovery is cut, the replay set it observes next boot is the
	// same set or nothing.
	for _, mask := range tearMasks {
		torn := append([]uint32(nil), w...)
		torn[JnlLenWord] = torn[JnlLenWord] &^ mask // new value is 0
		c2, s2, st2 := DecodeJournal(torn)
		switch st2 {
		case RecEmpty, RecCorrupt:
		case RecValid:
			if c2 != count || s2 != seq {
				t.Fatalf("mask %#x: torn clear decoded as different record (%d, %d)", mask, c2, s2)
			}
		}
	}
	// A disarmed journal is empty regardless of the stale seal/entries.
	w[JnlLenWord] = 0
	if _, _, st := DecodeJournal(w); st != RecEmpty {
		t.Fatalf("zero-length journal decodes %v, want empty", st)
	}
	// A length that cannot fit the region is corrupt, not a crash.
	w[JnlLenWord] = 0xFFFFFFFF
	if _, _, st := DecodeJournal(w); st != RecCorrupt {
		t.Fatalf("oversized length decodes %v, want corrupt", st)
	}
}

// TestJournalReplayIdempotentUnderTears drives the clank-level recovery
// contract: replaying a valid journal into a model memory, cut mid-replay
// by a torn home-location write, then replaying again from entry zero,
// converges to exactly the uninterrupted result — because the journal
// record itself is not modified by applies, only by the final clear.
func TestJournalReplayIdempotentUnderTears(t *testing.T) {
	entries := [][2]uint32{{0, 0x11111111}, {4, 0x22222222}, {8, 0x33333333}}
	w := buildJournal(entries, 3)
	count, _, st := DecodeJournal(w)
	if st != RecValid {
		t.Fatalf("journal invalid before replay")
	}
	reference := map[uint32]uint32{}
	for i := 0; i < count; i++ {
		a, v := JournalEntry(w, i)
		reference[a] = v
	}
	for cutAt := 0; cutAt < count; cutAt++ {
		for _, mask := range tearMasks {
			mem := map[uint32]uint32{0: 0xAAAAAAAA, 4: 0xBBBBBBBB, 8: 0xCCCCCCCC}
			// First replay attempt dies at entry cutAt with a torn write.
			for i := 0; i < cutAt; i++ {
				a, v := JournalEntry(w, i)
				mem[a] = v
			}
			a, v := JournalEntry(w, cutAt)
			mem[a] = mem[a]&^mask | v&mask
			// The journal region is untouched: the next boot sees the same
			// record and replays it in full.
			c2, _, st2 := DecodeJournal(w)
			if st2 != RecValid || c2 != count {
				t.Fatalf("journal changed by replay: (%d, %v)", c2, st2)
			}
			for i := 0; i < c2; i++ {
				a, v := JournalEntry(w, i)
				mem[a] = v
			}
			for addr, want := range reference {
				if mem[addr] != want {
					t.Fatalf("cut %d mask %#x: mem[%d] = %#x, want %#x",
						cutAt, mask, addr, mem[addr], want)
				}
			}
		}
	}
}

// FuzzSlotDecode feeds arbitrary byte images of the slot and journal
// regions through every recovery decoder: they must never panic, must
// classify each image as valid, detectably-corrupt, or empty, and a valid
// classification must be self-consistent (slot records re-encode to the
// identical image; journal CRCs re-verify).
func FuzzSlotDecode(f *testing.F) {
	var valid [SlotRecWords]uint32
	EncodeSlot(valid[:], testSlotRecord(11))
	f.Add(wordsToBytes(valid[:]))
	f.Add([]byte{})
	f.Add(make([]byte, 4*SlotRecWords))
	f.Add(wordsToBytes(buildJournal([][2]uint32{{4, 5}, {8, 9}}, 2)))
	corrupted := wordsToBytes(valid[:])
	corrupted[5] ^= 0x40
	f.Add(corrupted)
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		words := bytesToWords(data)
		rec, st := DecodeSlot(words)
		switch st {
		case RecEmpty, RecCorrupt:
		case RecValid:
			var back [SlotRecWords]uint32
			EncodeSlot(back[:], rec)
			for i := range back {
				if back[i] != word(words, i) {
					t.Fatalf("valid slot does not round-trip at word %d: %#x != %#x",
						i, back[i], word(words, i))
				}
			}
		default:
			t.Fatalf("slot decode returned undefined status %d", st)
		}
		if _, st := DecodeSlotLoose(words); st > RecValid {
			t.Fatalf("loose slot decode returned undefined status %d", st)
		}
		count, _, jst := DecodeJournal(words)
		switch jst {
		case RecEmpty, RecCorrupt:
		case RecValid:
			if JournalCRC(words, count) != word(words, JnlCRCWord) {
				t.Fatalf("valid journal fails its own CRC")
			}
			for i := 0; i < count; i++ {
				JournalEntry(words, i)
			}
		default:
			t.Fatalf("journal decode returned undefined status %d", jst)
		}
		if _, _, st := DecodeJournalLoose(words); st > RecValid {
			t.Fatalf("loose journal decode returned undefined status %d", st)
		}
	})
}

func wordsToBytes(w []uint32) []byte {
	b := make([]byte, 0, 4*len(w))
	for _, v := range w {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

func bytesToWords(b []byte) []uint32 {
	w := make([]uint32, 0, (len(b)+3)/4)
	for len(b) >= 4 {
		w = append(w, binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) > 0 {
		var tail [4]byte
		copy(tail[:], b)
		w = append(w, binary.LittleEndian.Uint32(tail[:]))
	}
	return w
}
