package clank

import (
	"unsafe"

	"repro/internal/accfilter"
)

// WriteBuf is a standalone Write-back Buffer for runtime schemes that
// privatize stores instead of detecting idempotency violations: an
// Alpaca-style task buffer holds every store a task makes until the task
// commits; a DiCA-style differential checkpoint drains only the words that
// changed since the previous one. Every entry is dirty — schemes only ever
// buffer writes, never saved read values.
//
// The slots sit behind the detector's word-state index (accfilter.Index),
// holding only KindWBD entries, so Get and Put cost one probe, as the
// hardware buffer answers in one cycle. Reset advances the epoch. A Put
// whose index entry collides with a live entry of another word — or whose
// slot lies beyond accfilter.IndexSlots — leaves the word unindexed and
// marks the index incomplete until the next Reset; lookups that miss the
// index then fall back to a scan of the slots (the detector's idxPut/
// idxProbe rule). The slot backing is allocated once at full capacity and
// never moves, which is what lets Port hand it out.
type WriteBuf struct {
	idx      accfilter.Index
	tag      uint64 // accfilter.Tag(epoch)
	epoch    uint32
	complete bool             // no Put went unindexed since Reset: an index miss is authoritative
	slots    []accfilter.Slot // buffered words; cap is the capacity
}

// NewWriteBuf returns an empty buffer holding up to capacity words.
func NewWriteBuf(capacity int) *WriteBuf {
	return &WriteBuf{
		tag:      accfilter.Tag(1),
		epoch:    1,
		complete: true,
		slots:    make([]accfilter.Slot, 0, capacity),
	}
}

// Get returns the buffered value for word, if present.
func (b *WriteBuf) Get(word uint32) (uint32, bool) {
	if i := b.find(word); i >= 0 {
		return b.slots[i].Val, true
	}
	return 0, false
}

// find returns the slot holding word, or -1.
func (b *WriteBuf) find(word uint32) int {
	if _, slot, live := b.idx.Lookup(word, b.tag); live {
		return slot
	}
	return b.scan(word)
}

// scan is find after an index miss: authoritative (-1) while the index is
// complete, a search of the slots otherwise. It stays out of line so that
// find, and with it Get, inlines.
//
//go:noinline
func (b *WriteBuf) scan(word uint32) int {
	if b.complete {
		return -1
	}
	for i := range b.slots {
		if b.slots[i].Word == word {
			return i
		}
	}
	return -1
}

// Put buffers a write, overwriting any previous value for the word. It
// reports false — without buffering — when the buffer is full and the word
// is not already present; the scheme must commit (draining the buffer)
// before retrying.
func (b *WriteBuf) Put(word, val uint32) bool {
	if i := b.find(word); i >= 0 {
		b.slots[i].Val = val
		return true
	}
	n := len(b.slots)
	if n == cap(b.slots) {
		return false
	}
	b.slots = append(b.slots, accfilter.Slot{Word: word, Val: val, Dirty: true})
	if n >= accfilter.IndexSlots || !b.idx.Put(word, accfilter.KindWBD, n, b.tag) {
		b.complete = false
	}
	return true
}

// Len returns the number of buffered words.
func (b *WriteBuf) Len() int { return len(b.slots) }

// Cap returns the buffer capacity in words.
func (b *WriteBuf) Cap() int { return cap(b.slots) }

// DirtyEntries appends the buffered writes to dst in ascending address
// order, mirroring Clank.DirtyEntries so checkpoint drains are
// byte-identical in layout whichever scheme produced them. Callers reuse
// one scratch slice (DirtyEntries(scratch[:0])) for an alloc-free steady
// state.
func (b *WriteBuf) DirtyEntries(dst []WBEntry) []WBEntry {
	for i := range b.slots {
		e := &b.slots[i]
		dst = append(dst, WBEntry{Word: e.Word, Value: e.Val})
	}
	return sortWBEntries(dst)
}

// Reset discards all buffered writes: a length truncation and an epoch
// bump, which retires every index entry at once.
func (b *WriteBuf) Reset() {
	b.slots = b.slots[:0]
	b.complete = true
	b.epoch = b.idx.NextEpoch(b.epoch)
	b.tag = accfilter.Tag(b.epoch)
}

// Port exposes the buffer to the CPU's fused executor: the index, the
// epoch tag, the completeness flag and the slot backing at full capacity,
// with accesses as the owner's section access counter. It has no filter
// tag arrays, so it certifies the accfilter dirty Write-back kind — a load
// of an indexed word is served its slot's value, a store merges into it —
// and, while the index is complete, a load of an unindexed word, which
// reads memory; every other access stays with the owner. The owner must
// read every unbuffered word as "count it, proceed". Like Clank.Port it
// aliases the buffer's own state and stays valid across Reset.
func (b *WriteBuf) Port(accesses *int) accfilter.Port {
	return accfilter.Port{
		Accesses: accesses, Index: &b.idx, Epoch: &b.tag, Slots: b.slots[:cap(b.slots)],
		Complete: &b.complete,
	}
}

// Footprint estimates the buffer's host-memory cost in bytes, matching
// Clank.Footprint's accounting: the struct (the index dominates) and the
// slot backing.
func (b *WriteBuf) Footprint() uint64 {
	return uint64(unsafe.Sizeof(*b)) + uint64(cap(b.slots))*uint64(unsafe.Sizeof(accfilter.Slot{}))
}
