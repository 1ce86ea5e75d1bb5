package clank

import (
	"unsafe"

	"repro/internal/accfilter"
)

// WriteBuf is a standalone Write-back CAM for runtime schemes that
// privatize stores instead of detecting idempotency violations: an
// Alpaca-style task buffer holds every store a task makes until the task
// commits; a DiCA-style differential checkpoint drains only the words that
// changed since the previous one. It reuses the detector's wbCAM machinery
// — fixed-capacity linear scan with a map index beyond camLinearMax — so a
// scheme buffer has the same cost model and alloc-free steady state as the
// hardware buffers.
//
// Unlike the detector's Write-back Buffer, every entry is dirty: schemes
// only ever buffer writes, never saved read values.
type WriteBuf struct {
	cam wbCAM
}

// NewWriteBuf returns an empty buffer holding up to capacity words.
func NewWriteBuf(capacity int) *WriteBuf {
	b := &WriteBuf{cam: newWBCAM(capacity, nil)}
	return b
}

// Get returns the buffered value for word, if present.
func (b *WriteBuf) Get(word uint32) (uint32, bool) {
	if i := b.cam.find(word); i >= 0 {
		return b.cam.slots[i].Val, true
	}
	return 0, false
}

// Put buffers a write, overwriting any previous value for the word. It
// reports false — without buffering — when the buffer is full and the word
// is not already present; the scheme must commit (draining the buffer)
// before retrying.
func (b *WriteBuf) Put(word, val uint32) bool {
	if i := b.cam.find(word); i >= 0 {
		b.cam.slots[i].Val = val
		return true
	}
	if b.cam.full() {
		return false
	}
	b.cam.insert(word, val, true)
	return true
}

// Len returns the number of buffered words.
func (b *WriteBuf) Len() int { return len(b.cam.slots) }

// Cap returns the buffer capacity in words.
func (b *WriteBuf) Cap() int { return b.cam.capacity }

// DirtyEntries appends the buffered writes to dst in ascending address
// order, mirroring Clank.DirtyEntries so checkpoint drains are
// byte-identical in layout whichever scheme produced them. Callers reuse
// one scratch slice (DirtyEntries(scratch[:0])) for an alloc-free steady
// state.
func (b *WriteBuf) DirtyEntries(dst []WBEntry) []WBEntry {
	for i := range b.cam.slots {
		e := &b.cam.slots[i]
		dst = append(dst, WBEntry{Word: e.Word, Value: e.Val})
	}
	return sortWBEntries(dst)
}

// Reset discards all buffered writes.
func (b *WriteBuf) Reset() { b.cam.reset() }

// Footprint estimates the buffer's host-memory cost in bytes, matching
// Clank.Footprint's accounting.
func (b *WriteBuf) Footprint() uint64 {
	const mapEntry = 48
	f := uint64(unsafe.Sizeof(*b))
	f += uint64(cap(b.cam.slots)) * uint64(unsafe.Sizeof(accfilter.Slot{}))
	f += uint64(len(b.cam.idx)) * mapEntry
	return f
}
