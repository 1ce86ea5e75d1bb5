// Package accfilter is the shape of the state the Clank detector keeps in
// front of its buffers (internal/clank) — the access filter, the word-state
// index and the Write-back slots — in a leaf package so the CPU's fused
// executor (internal/armsim) can probe the detector's very arrays through a
// Port without importing the detector. The privatizing write buffer behind
// Alpaca and DiCA (clank.WriteBuf) keeps the same index and slots, with
// only KindWBD entries: every word it holds is a buffered write.
//
// The filter is two direct-mapped tag arrays of word addresses. Slot i
// certifies word w when tags[w&Mask] == w; there is no separate valid bit —
// an empty or invalidated slot holds a value whose low nine bits differ from
// its index (Empty holds ^i; the detector point-invalidates with ^w), so no
// probe can match it.
//
// The word-state index (Index) is a direct-mapped, epoch-tagged table
// recording where each word of the current section is tracked: Read-first,
// Write-first, or a clean or dirty Write-back slot (Slot) and its position.
// A live entry — one holding w in the current epoch — is authoritative; a
// missing one says nothing a prober may act on.
//
// The contract, which only the detector establishes and maintains (see the
// invalidation matrix in DESIGN.md), certifies three kinds of access:
//
//   - A Read hit certifies that the detector's verdict for reading w is
//     "proceed, nothing to do" and that the read changes no detector state
//     except the section access count; a Write hit certifies the same for
//     writing w, for any value and any pc. The prober owes one access count
//     and the memory access itself.
//   - A live dirty Write-back entry (KindWBD) certifies, for any pc, that a
//     read of w is served the slot's Val instead of memory, and that a write
//     of w is absorbed into Val: the merged word replaces Val, and memory is
//     not written. The prober owes one access count and the slot access;
//     it must not touch memory.
//   - A live clean Write-back entry (KindWBC) certifies a write of w as a
//     false write — verdict "proceed", no state change — exactly when the
//     merged word (memory's word with the stored lane replaced) equals the
//     slot's Val, the value the section first read. The prober owes one
//     access count and the memory write; an unequal word is uncertified.
//
// On anything else the prober must call the detector, which re-probes and
// counts.
//
// A Port without tag arrays (Read and Write nil) certifies the dirty
// Write-back kind and, through Complete, one more: while *Complete holds,
// its index names every word its owner buffers, so a read of a word
// without a live entry is "proceed, read memory" (Alpaca's reads need no
// bookkeeping). The prober owes one access count and the memory read. The
// owner vouches for no filter verdict, so filter probes, clean-slot false
// writes, stores of unbuffered words and every other access it cannot
// answer go to the owner. TEXT literal loads need no verdict from any
// owner: every port certifies them as reads of memory.
//
// A reference monitor shadowing the owner (refmon.Certified) adds its own
// two certificate arrays (Certs), Tracked and WriteDom, in the same Tags
// shape and derived only from the monitor's table. While they are set,
// each access the port completes that the monitor would otherwise see must
// be certified by the monitor too: a read (filter hit, TEXT literal, or
// unindexed word) needs Tracked, because the monitor ignores a read of a
// word it already tracks; a filter write hit needs WriteDom, because the
// monitor ignores a write of a write-dominated word. A clean-slot false
// write, whose verdict depends on the value, is not completed at all.
// Dirty Write-back accesses need no monitor certificate: the monitor never
// sees them.
package accfilter

const (
	// Entries is the slot count of each tag array.
	Entries = 512
	// Mask maps a word address to its slot.
	Mask = Entries - 1
)

// Tags is one direct-mapped tag array.
type Tags [Entries]uint32

// Hit reports whether the array certifies word.
func (t *Tags) Hit(word uint32) bool { return t[word&Mask] == word }

// Empty is the all-slots-invalid tag array: slot i holds ^i, whose low nine
// bits are 511-i, and 511-i == i has no integer solution.
var Empty = func() (a Tags) {
	for i := range a {
		a[i] = ^uint32(i)
	}
	return
}()

// Slot is one Write-back Buffer entry: a buffered violating write (Dirty)
// or a saved read value for false-write detection (clean).
type Slot struct {
	Word  uint32
	Val   uint32
	Dirty bool
}

// Word-state index encoding. Each entry packs the word, its tracking kind,
// the Write-back slot position (Write-back kinds only) and the epoch it was
// written in:
//
//	bits  0-31  word address
//	bits 32-39  Write-back slot (KindWBC/KindWBD only)
//	bits 40-41  kind
//	bits 43-63  epoch
//
// The detector bumps its epoch to invalidate every entry at once, so an
// entry is live only while its epoch field equals the current one.
const (
	// IndexEntries is the slot count of the index.
	IndexEntries = 512
	// IndexSlots is the number of Write-back slot positions an entry can
	// name (the 8-bit slot field); a slot at or beyond it is never indexed.
	IndexSlots = 1 << 8
	// EpochMax is the largest epoch the field holds.
	EpochMax = 1<<(64-epochShift) - 1

	indexMask  = IndexEntries - 1
	slotShift  = 32
	kindShift  = 40
	epochShift = 43
	metaMask   = uint64(0x7FF) << slotShift // slot + kind + spare bit
	epochMask  = ^uint64(1<<epochShift - 1)

	KindRF  = 0 // in the Read-first Buffer only
	KindWF  = 1 // in the Write-first Buffer
	KindWBC = 2 // clean (saved-read) Write-back entry; word also in RF
	KindWBD = 3 // dirty Write-back entry
)

// Index is the word-state index.
type Index [IndexEntries]uint64

// Tag is epoch shifted into its entry position: the value a live entry's
// epoch field holds.
func Tag(epoch uint32) uint64 { return uint64(epoch) << epochShift }

// Lookup decodes word's index entry into its kind and Write-back slot
// position, and reports whether it is live: it holds word and was written
// under tag. The fields mean nothing for an entry that is not live, and
// the slot is meaningful only for the Write-back kinds.
func (x *Index) Lookup(word uint32, tag uint64) (kind, slot int, live bool) {
	e := x[word&indexMask]
	return int(e>>kindShift) & 3, int(e>>slotShift) & 0xff, e&^metaMask == uint64(word)|tag
}

// Put records word's kind (and Write-back slot) under tag. A live entry
// for a different word is never evicted: Put then leaves the index
// unchanged and returns false.
func (x *Index) Put(word uint32, kind, slot int, tag uint64) bool {
	h := word & indexMask
	if e := x[h]; e&epochMask == tag && uint32(e) != word {
		return false
	}
	x[h] = uint64(word) | uint64(slot)<<slotShift | uint64(kind)<<kindShift | tag
	return true
}

// NextEpoch returns the epoch after epoch. When the field wraps it
// clears x, so no entry written in an earlier cycle of epochs can read as
// live under a reused tag.
func (x *Index) NextEpoch(epoch uint32) uint32 {
	if epoch >= EpochMax {
		*x = Index{}
		return 1
	}
	return epoch + 1
}

// Port is a prober's view of one detector: its two filter tag arrays, its
// section access counter, its word-state index with the current epoch's
// tag, and its Write-back slots, all owned and maintained by the detector.
// A privatizing write buffer's port (clank.WriteBuf.Port) leaves Read and
// Write nil and instead points Complete at its index-completeness flag.
// Certs are a reference monitor's certificates (nil without a monitor),
// which the machine running both attaches.
type Port struct {
	Read, Write *Tags
	Accesses    *int
	Index       *Index
	Epoch       *uint64
	Slots       []Slot
	Complete    *bool
	Certs       *Certs
}

// Certs is a reference monitor's pair of certificate arrays: Tracked names
// the words it already tracks this section, WriteDom those it holds as
// write-dominated.
type Certs struct {
	Tracked, WriteDom Tags
}

// WriteBack returns the Write-back slot a live index entry places word in,
// clean or dirty, or nil.
func (p *Port) WriteBack(word uint32) *Slot {
	kind, slot, live := p.Index.Lookup(word, *p.Epoch)
	if !live || kind < KindWBC {
		return nil
	}
	return &p.Slots[slot]
}
