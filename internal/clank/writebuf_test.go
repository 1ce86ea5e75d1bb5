package clank

import (
	"fmt"
	"testing"

	"repro/internal/accfilter"
)

func testWriteBufBasics(t *testing.T, capacity int) {
	t.Helper()
	wb := NewWriteBuf(capacity)
	if wb.Cap() != capacity {
		t.Fatalf("Cap() = %d, want %d", wb.Cap(), capacity)
	}
	if _, ok := wb.Get(1); ok {
		t.Fatal("empty buffer claims to hold word 1")
	}

	// Fill to capacity with descending addresses (exercises the sort).
	for i := 0; i < capacity; i++ {
		w := uint32(capacity - i)
		if !wb.Put(w, w*10) {
			t.Fatalf("Put(%d) failed below capacity", w)
		}
	}
	if wb.Len() != capacity {
		t.Fatalf("Len() = %d, want %d", wb.Len(), capacity)
	}
	for w := uint32(1); w <= uint32(capacity); w++ {
		if v, ok := wb.Get(w); !ok || v != w*10 {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", w, v, ok, w*10)
		}
	}
	// Full + absent word: refused.
	if wb.Put(uint32(capacity+7), 1) {
		t.Fatal("Put of a new word succeeded on a full buffer")
	}
	// Full + resident word: updates in place.
	if !wb.Put(3, 99) {
		t.Fatal("Put of a resident word failed on a full buffer")
	}
	if v, ok := wb.Get(3); !ok || v != 99 {
		t.Fatalf("Get(3) = %d, %v after update", v, ok)
	}

	ents := wb.DirtyEntries(nil)
	if len(ents) != capacity {
		t.Fatalf("DirtyEntries returned %d entries, want %d", len(ents), capacity)
	}
	for i := 1; i < len(ents); i++ {
		if ents[i-1].Word >= ents[i].Word {
			t.Fatalf("DirtyEntries not in ascending address order at %d: %d >= %d",
				i, ents[i-1].Word, ents[i].Word)
		}
	}

	if wb.Footprint() == 0 {
		t.Error("Footprint() = 0")
	}
	wb.Reset()
	if wb.Len() != 0 {
		t.Errorf("Len() = %d after Reset", wb.Len())
	}
	if _, ok := wb.Get(3); ok {
		t.Error("Get(3) succeeded after Reset")
	}
	if !wb.Put(3, 1) {
		t.Error("Put failed after Reset")
	}
}

// TestWriteBufCapacities runs the buffer contract at the capacities
// clank-explore sweeps; 256 fills every slot position an index entry can
// name (accfilter.IndexSlots).
func TestWriteBufCapacities(t *testing.T) {
	for _, capacity := range []int{16, 64, accfilter.IndexSlots} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			testWriteBufBasics(t, capacity)
			if wb := NewWriteBuf(capacity); !wb.complete {
				t.Error("a fresh buffer's index is incomplete")
			}
		})
	}
}

// checkWriteBufPort asserts the port's view of wb: every word the port's
// index places in a slot is dirty and buffered with the slot's value, and
// a word the index does not name is buffered only while the index is
// incomplete.
func checkWriteBufPort(t *testing.T, wb *WriteBuf, words ...uint32) {
	t.Helper()
	p := wb.Port(new(int))
	if p.Read != nil || p.Write != nil {
		t.Fatal("a write buffer's port carries filter tag arrays")
	}
	for _, w := range words {
		v, ok := wb.Get(w)
		s := p.WriteBack(w)
		switch {
		case s != nil && (!ok || !s.Dirty || s.Word != w || s.Val != v):
			t.Errorf("word %#x: port slot %+v, buffer holds %#x, %v", w, *s, v, ok)
		case s == nil && ok && wb.complete:
			t.Errorf("word %#x is buffered but unindexed while the index claims completeness", w)
		}
	}
}

// TestWriteBufIndexCollision drives the incomplete-index fallback: w and
// w+IndexEntries share an index entry, so the second word goes unindexed,
// misses stop being authoritative, and lookups of it scan the slots —
// until Reset makes the index complete again.
func TestWriteBufIndexCollision(t *testing.T) {
	const w, other = 40, 40 + accfilter.IndexEntries
	wb := NewWriteBuf(16)
	if !wb.Put(w, 1) || !wb.Put(other, 2) {
		t.Fatal("Put below capacity failed")
	}
	if wb.complete {
		t.Fatal("a colliding Put left the index complete")
	}
	if p := wb.Port(new(int)); p.WriteBack(other) != nil {
		t.Error("the port serves the unindexed colliding word")
	}
	if !wb.Put(other, 3) {
		t.Fatal("update of the unindexed word failed")
	}
	if wb.Len() != 2 {
		t.Fatalf("updating the unindexed word added a slot: Len() = %d", wb.Len())
	}
	for _, tc := range []struct{ word, val uint32 }{{w, 1}, {other, 3}} {
		if v, ok := wb.Get(tc.word); !ok || v != tc.val {
			t.Errorf("Get(%#x) = %#x, %v; want %#x, true", tc.word, v, ok, tc.val)
		}
	}
	if _, ok := wb.Get(w + 2*accfilter.IndexEntries); ok {
		t.Error("an absent word sharing the entry was found")
	}
	checkWriteBufPort(t, wb, w, other)
	if got := wb.DirtyEntries(nil); len(got) != 2 || got[0] != (WBEntry{w, 1}) || got[1] != (WBEntry{other, 3}) {
		t.Errorf("DirtyEntries = %v", got)
	}
	wb.Reset()
	if !wb.complete {
		t.Error("Reset left the index incomplete")
	}
	// Under the new epoch the colliding word indexes normally.
	if !wb.Put(other, 4) {
		t.Fatal("Put after Reset failed")
	}
	if p := wb.Port(new(int)); p.WriteBack(other) == nil || p.WriteBack(other).Val != 4 {
		t.Errorf("after Reset the port does not serve %#x with its new value", other)
	}
}

// TestWriteBufPastIndexSlots: a capacity beyond the index's slot field
// buffers the extra words unindexed, through the same fallback.
func TestWriteBufPastIndexSlots(t *testing.T) {
	n := accfilter.IndexSlots + 8
	wb := NewWriteBuf(n)
	words := make([]uint32, n)
	for i := range words {
		words[i] = uint32(i)
		if !wb.Put(words[i], uint32(i)+100) {
			t.Fatalf("Put(%d) failed below capacity", i)
		}
	}
	if wb.complete {
		t.Fatal("slots beyond IndexSlots left the index complete")
	}
	for _, w := range words {
		if v, ok := wb.Get(w); !ok || v != w+100 {
			t.Fatalf("Get(%d) = %d, %v", w, v, ok)
		}
	}
	checkWriteBufPort(t, wb, words...)
}

// TestWriteBufEpochWrap: the Reset that wraps the epoch field past
// EpochMax must clear the index, or entries written under epoch 1 a full
// cycle ago would read as live again — naming slots the buffer no longer
// holds.
func TestWriteBufEpochWrap(t *testing.T) {
	wb := NewWriteBuf(16)
	wb.Put(7, 70) // indexed under epoch 1
	wb.Reset()
	// Skip to the last epoch, as ~2M Resets would.
	wb.epoch = accfilter.EpochMax - 1
	wb.Reset()
	if wb.epoch != accfilter.EpochMax {
		t.Fatalf("epoch = %d, want EpochMax", wb.epoch)
	}
	wb.Put(9, 90)
	if v, ok := wb.Get(9); !ok || v != 90 {
		t.Fatalf("Get(9) = %d, %v at EpochMax", v, ok)
	}
	wb.Reset()
	if wb.epoch != 1 || wb.tag != accfilter.Tag(1) {
		t.Fatalf("after the wrap: epoch %d tag %#x, want 1", wb.epoch, wb.tag)
	}
	for _, w := range []uint32{7, 9} {
		if _, ok := wb.Get(w); ok {
			t.Errorf("word %d survived the wrap", w)
		}
		if p := wb.Port(new(int)); p.WriteBack(w) != nil {
			t.Errorf("the port serves word %d after the wrap", w)
		}
	}
	if !wb.Put(7, 71) {
		t.Fatal("Put after the wrap failed")
	}
	if v, ok := wb.Get(7); !ok || v != 71 {
		t.Errorf("Get(7) = %d, %v after the wrap", v, ok)
	}
}

// FuzzWriteBufVsMap differentially checks WriteBuf against a map with a
// capacity: the first byte picks the capacity (16, 64 or 256), then each
// byte pair is one operation. Words come from a small set whose members
// share index entries (w, w+512, w+1024, w+1536), so collisions and the
// incomplete-index fallback are the common case. After every operation
// the port's view must agree with the buffer.
func FuzzWriteBufVsMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := []int{16, 64, accfilter.IndexSlots, 16}[data[0]&3]
		wb := NewWriteBuf(capacity)
		ref := make(map[uint32]uint32)
		var words []uint32
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			w := uint32(arg&0x3F) + accfilter.IndexEntries*uint32(arg>>6)
			val := uint32(op)<<8 | uint32(arg)
			switch op % 8 {
			case 0, 1, 2, 3: // Put
				_, present := ref[w]
				want := present || len(ref) < capacity
				if got := wb.Put(w, val); got != want {
					t.Fatalf("op %d: Put(%#x) = %v, model %v (len %d, cap %d)", i, w, got, want, len(ref), capacity)
				}
				if want {
					ref[w] = val
					if !present {
						words = append(words, w)
					}
				}
			case 4, 5, 6: // Get
				v, ok := wb.Get(w)
				if rv, rok := ref[w]; ok != rok || v != rv {
					t.Fatalf("op %d: Get(%#x) = %#x, %v; model %#x, %v", i, w, v, ok, rv, rok)
				}
			case 7: // Reset
				wb.Reset()
				clear(ref)
				words = words[:0]
			}
			if wb.Len() != len(ref) {
				t.Fatalf("op %d: Len() = %d, model %d", i, wb.Len(), len(ref))
			}
			checkWriteBufPort(t, wb, w)
		}
		got := wb.DirtyEntries(nil)
		if len(got) != len(ref) {
			t.Fatalf("DirtyEntries has %d entries, model %d", len(got), len(ref))
		}
		for i, e := range got {
			if i > 0 && got[i-1].Word >= e.Word {
				t.Fatalf("DirtyEntries out of order at %d", i)
			}
			if v, ok := ref[e.Word]; !ok || v != e.Value {
				t.Fatalf("DirtyEntries holds %+v, model %#x, %v", e, v, ok)
			}
		}
		checkWriteBufPort(t, wb, words...)
	})
}
