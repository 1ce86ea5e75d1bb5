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
