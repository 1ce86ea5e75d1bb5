package accfilter

import "testing"

// TestEmptyNeverHits pins the valid-bit-free encoding: an empty slot holds
// a value no word mapping to that slot can equal, so probing any word
// against Empty misses.
func TestEmptyNeverHits(t *testing.T) {
	for i := range Empty {
		if Empty[i]&Mask == uint32(i) {
			t.Fatalf("empty slot %d holds %#x, which a word of that slot can equal", i, Empty[i])
		}
	}
	e := Empty
	for _, w := range []uint32{0, 1, Mask, Entries, 0xFFFFFFFF, 0xFFFFFE00} {
		if e.Hit(w) {
			t.Errorf("word %#x hits the empty array", w)
		}
	}
}

// TestIndexPutLookup pins the word-state index encoding: every kind and
// slot round-trips for words across the full address width, an entry is
// live only under the tag it was written with, and Put never evicts a live
// entry of a different word but overwrites a stale one or the word's own.
func TestIndexPutLookup(t *testing.T) {
	var x Index
	t1, t2 := Tag(1), Tag(EpochMax)
	for _, w := range []uint32{0, 1, Mask, IndexEntries + 7, 0x3FFFFFFF, 0xFFFFFFFF} {
		for kind := KindRF; kind <= KindWBD; kind++ {
			for _, slot := range []int{0, 1, 255} {
				x = Index{}
				if !x.Put(w, kind, slot, t1) {
					t.Fatalf("Put(%#x) into an empty index failed", w)
				}
				k, s, live := x.Lookup(w, t1)
				if !live || k != kind || s != slot {
					t.Errorf("Lookup(%#x) = kind %d slot %d live %v, want %d %d true", w, k, s, live, kind, slot)
				}
				if _, _, live := x.Lookup(w, t2); live {
					t.Errorf("word %#x is live under another epoch", w)
				}
				if _, _, live := x.Lookup(w^IndexEntries, t1); live {
					t.Errorf("word %#x answers for colliding word %#x", w, w^IndexEntries)
				}
			}
		}
	}
	x = Index{}
	const w, other = 40, 40 + IndexEntries
	x.Put(w, KindWBD, 3, t1)
	if x.Put(other, KindRF, 0, t1) {
		t.Error("Put evicted a live entry of a different word")
	}
	if k, s, live := x.Lookup(w, t1); !live || k != KindWBD || s != 3 {
		t.Errorf("incumbent changed after a refused Put: kind %d slot %d live %v", k, s, live)
	}
	if !x.Put(w, KindWBC, 2, t1) {
		t.Error("Put refused to update the word's own entry")
	}
	if !x.Put(other, KindWF, 0, t2) {
		t.Error("Put refused to replace a stale entry")
	}
	if k, _, live := x.Lookup(other, t2); !live || k != KindWF {
		t.Errorf("replacing entry reads kind %d live %v", k, live)
	}
}
