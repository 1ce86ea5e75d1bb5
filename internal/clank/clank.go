package clank

import (
	"slices"
	"unsafe"

	"repro/internal/accfilter"
)

// Buffer representation. Real Clank hardware implements the Read-first,
// Write-first, Write-back, and Address Prefix buffers as small (≤16-entry)
// content-addressable memories: every access compares against all entries
// in parallel. The software model mirrors that shape — each buffer is a
// fixed-capacity array allocated once at construction and probed by linear
// scan — because it is both the faithful model and the fast one: a probe
// touches a handful of contiguous words with no hashing and no per-access
// allocation, Reset is a length truncation, and the checkpoint drain
// appends into a caller-owned scratch slice. Every experiment in the
// paper's evaluation replays millions of accesses through Read/Write, so
// this is the hottest path in the repository (see BENCH_clank.json).
//
// Configurations far beyond hardware scale (the Unlimited buffers of the
// checkpoint-vs-re-execution study, section 7.4) would degrade a linear
// CAM scan to O(n) per access, so buffers whose capacity exceeds
// camLinearMax transparently add a map index; the hardware-plausible sizes
// the evaluation sweeps never do.

// camLinearMax is the largest capacity probed by pure linear scan. Real
// configurations are ≤16 entries; the margin keeps sweep configurations on
// the fast path too.
const camLinearMax = 64

// addrCAM is a fixed-capacity set of word addresses.
type addrCAM struct {
	capacity int
	words    []uint32
	idx      map[uint32]struct{} // non-nil only beyond camLinearMax
}

// newAddrCAM builds a CAM whose backing is carved from *pool when the
// capacity is linear-scan sized and pool is non-nil (the batch arena), or
// allocated individually otherwise. Map-indexed buffers beyond
// camLinearMax always own their index.
func newAddrCAM(capacity int, pool *[]uint32) addrCAM {
	c := addrCAM{capacity: capacity}
	if capacity > camLinearMax {
		c.idx = make(map[uint32]struct{})
	} else if pool != nil {
		p := *pool
		c.words = p[:0:capacity]
		*pool = p[capacity:]
	} else {
		c.words = make([]uint32, 0, capacity)
	}
	return c
}

func (c *addrCAM) contains(w uint32) bool {
	if c.idx != nil {
		_, ok := c.idx[w]
		return ok
	}
	for _, e := range c.words {
		if e == w {
			return true
		}
	}
	return false
}

func (c *addrCAM) size() int {
	if c.idx != nil {
		return len(c.idx)
	}
	return len(c.words)
}

func (c *addrCAM) full() bool { return c.size() >= c.capacity }

// insert adds w, which must not be present; the caller checks full() first.
func (c *addrCAM) insert(w uint32) {
	if c.idx != nil {
		c.idx[w] = struct{}{}
		return
	}
	c.words = append(c.words, w)
}

func (c *addrCAM) remove(w uint32) {
	if c.idx != nil {
		delete(c.idx, w)
		return
	}
	for i, e := range c.words {
		if e == w {
			last := len(c.words) - 1
			c.words[i] = c.words[last]
			c.words = c.words[:last]
			return
		}
	}
}

func (c *addrCAM) reset() {
	if c.idx != nil {
		clear(c.idx)
		return
	}
	c.words = c.words[:0]
}

// wbCAM is the fixed-capacity Write-back Buffer. Its entries are
// accfilter.Slot values — a buffered violating write (Dirty) or a saved
// read value for false-write detection (clean, section 3.2.1) — so an
// access port can serve them (Port).
type wbCAM struct {
	capacity int
	slots    []accfilter.Slot
	idx      map[uint32]int // word -> slot position, beyond camLinearMax
}

// newWBCAM mirrors newAddrCAM's pool-carving contract.
func newWBCAM(capacity int, pool *[]accfilter.Slot) wbCAM {
	c := wbCAM{capacity: capacity}
	if capacity > camLinearMax {
		c.idx = make(map[uint32]int)
		c.slots = make([]accfilter.Slot, 0, camLinearMax)
	} else if pool != nil {
		p := *pool
		c.slots = p[:0:capacity]
		*pool = p[capacity:]
	} else {
		c.slots = make([]accfilter.Slot, 0, capacity)
	}
	return c
}

// find returns the slot index holding word, or -1.
func (c *wbCAM) find(word uint32) int {
	if c.idx != nil {
		if i, ok := c.idx[word]; ok {
			return i
		}
		return -1
	}
	for i := range c.slots {
		if c.slots[i].Word == word {
			return i
		}
	}
	return -1
}

func (c *wbCAM) full() bool { return len(c.slots) >= c.capacity }

// insert adds a slot for word, which must not be present; the caller
// checks full() first.
func (c *wbCAM) insert(word, val uint32, dirty bool) {
	if c.idx != nil {
		c.idx[word] = len(c.slots)
	}
	c.slots = append(c.slots, accfilter.Slot{Word: word, Val: val, Dirty: dirty})
}

func (c *wbCAM) removeAt(i int) {
	last := len(c.slots) - 1
	if c.idx != nil {
		delete(c.idx, c.slots[i].Word)
		if i != last {
			c.idx[c.slots[last].Word] = i
		}
	}
	c.slots[i] = c.slots[last]
	c.slots = c.slots[:last]
}

func (c *wbCAM) reset() {
	c.slots = c.slots[:0]
	if c.idx != nil {
		clear(c.idx)
	}
}

// Access filter. Hardware Clank answers every access in one cycle because
// the four CAMs probe in parallel; the software model pays a linear scan
// per access, so the reproduction's bottleneck would be an artifact of the
// model, not the design. The filter is a small direct-mapped table in
// front of the CAMs answering the repeated-access common case — "this word
// is already tracked and this access cannot change detector state" — with
// two loads and two compares. It is semantics-free: a hit returns exactly
// what the CAM path would (Outcome{} plus the access count), a miss falls
// through to the scan, and every transition that could invalidate an entry
// clears it (see the invalidation matrix in DESIGN.md).
//
// The filter is two direct-mapped tag arrays so the hot probe is one load
// and one compare (cheap enough that Read/Write inline into monitored-bus
// drivers). There is no separate valid bit: an empty or invalidated slot i
// holds a value whose low nine bits do not equal i (^uint32(i) at reset,
// ^word on point invalidation — the bitwise NOT maps low bits i to 511-i,
// and 511-i == i has no integer solution), so no probe of any 32-bit word
// address can ever match an empty slot. fltEntries is sized so the
// lookup-table working sets of real programs (MiBench's 256-entry CRC and
// AES tables) do not thrash the direct mapping; Reset stays cheap at that
// size because every slot written during a section is recorded in a
// bounded undo list and only those slots are restored (a section that
// writes more slots than the list holds falls back to the full restore).
//
//	fltRead[w&fltMask] == w asserts Read(w,·,·) returns Outcome{} and
//	    changes no buffer state. True while w is in RF or WF, has a
//	    clean (saved-read) Write-back entry, or was read in untracked
//	    mode (where reads mutate nothing and the mode outlives every
//	    entry — it ends only at Reset). Never true for dirty Write-back
//	    words — those reads return FromWB.
//	fltWrite[w&fltMask] == w asserts Write(w,·,·,·) returns Outcome{}
//	    and changes no buffer state. True while w is in WF — WF words
//	    can never reach the violation path or acquire Write-back entries
//	    (both Read and Write bail on the WF hit first), and a WF hit
//	    returns Outcome{} even in untracked mode — or while w is a
//	    passthrough word, untracked by any buffer and written in tracked
//	    mode where the write is let through unrecorded: WriteFirst == 0,
//	    or, under OptNoWFOverflow, a full Write-first Buffer or a full
//	    Address Prefix Buffer missing w's prefix (both only fill up
//	    until Reset). Passthrough writes stay Outcome{} until the word
//	    enters the Read-first Buffer (the insert point-invalidates) or
//	    the section goes untracked (the transition wipes all write
//	    entries, since an untracked write must checkpoint). WF entries
//	    themselves invalidate only at Reset.
//
// Both assertions hold for every pc: exempt-PC accesses to such words
// return Outcome{} through a different branch of the same decision tree,
// so the filter need not be pc-aware.
//
// The tag array type is internal/accfilter's, so the CPU's fused executor
// can probe these very arrays through an accfilter.Port (Port): the two
// assertions above are the whole contract it relies on.
const (
	fltEntries = accfilter.Entries
	fltMask    = accfilter.Mask
)

// fltEmpty is the all-slots-invalid tag array (see accfilter.Empty).
var fltEmpty = accfilter.Empty

// Word-state index. The access filter above answers "this access repeats
// and cannot change state"; everything else still walks the CAM scans —
// and in a batched design-space sweep those scans dominate the replay,
// because every section's first touch of a word and every state
// transition pays O(RF+WF+WB). The index is a direct-mapped, epoch-tagged
// table in front of the scans answering the full question "where is this
// word tracked" in one load: each entry packs the word, its tracking kind
// (Read-first / Write-first / clean or dirty Write-back, plus the
// Write-back slot position), and the epoch it was written in. The entry
// encoding is internal/accfilter's (accfilter.Index), so an access port
// can serve Write-back words through these very entries.
//
// Reset bumps the epoch, instantly invalidating every entry without
// touching the table (it wraps every ~2M sections, forcing one real
// clear). A hash collision never evicts: the incumbent stays and
// idxComplete drops until the next Reset, recording that a probe miss is
// no longer authoritative — lookups then fall back to the scans. Sections touch far fewer distinct words than the index has
// entries, so in steady state the index is complete and a miss proves the
// word untracked, skipping all three CAM probes. The index mirrors buffer
// state; it never defines it, so a bug here is a divergence the
// differential suites (FuzzCAMvsMap, the bounded sweeps, the
// batch-vs-scalar tests) catch.

// FilterBug selects a deliberately broken access-filter invalidation mode.
// It exists only for meta-tests proving the differential and bounded-sweep
// machinery catches a stale filter; see SetFilterBug.
type FilterBug int

const (
	// FilterBugNone is the correct filter.
	FilterBugNone FilterBug = iota
	// FilterBugSkipViolationInvalidate leaves a word's filter entry intact
	// when its violating write is buffered (the WAR transition that makes
	// the word dirty in the Write-back Buffer). A later read of the word
	// then fast-paths to Outcome{} instead of being served FromWB.
	FilterBugSkipViolationInvalidate
)

// outcomeOK is the zero Outcome ("proceed, nothing to do"). The filter
// fast paths return this named value instead of a composite literal to
// stay inside the inliner budget.
var outcomeOK Outcome

// Outcome is the detector's verdict on one access.
type Outcome struct {
	// NeedCheckpoint means a checkpoint must be taken BEFORE this access
	// commits; the driver checkpoints, resets the section, and re-feeds
	// the access.
	NeedCheckpoint bool
	Reason         Reason

	// Buffered means a write was absorbed by the Write-back Buffer and
	// must NOT be written to non-volatile memory.
	Buffered bool

	// FromWB means a read was served from the Write-back Buffer;
	// ReadValue holds the value to use instead of memory's.
	FromWB    bool
	ReadValue uint32
}

// Clank is the hardware state: the four buffers plus the untracked-mode
// flag of the Latest-Checkpoint optimization. All addresses are 30-bit word
// addresses.
type Clank struct {
	cfg Config

	rf  addrCAM
	wf  addrCAM
	wb  wbCAM
	apb addrCAM

	wbDirty   int
	untracked bool
	accesses  int // accesses classified since the last Reset

	textStartW, textEndW uint32

	// Access-filter front end (see the block comment above FilterBug).
	// Embedded arrays keep the probe one pointer dereference from k.
	fltRead    accfilter.Tags
	fltWrite   accfilter.Tags
	fltTouched [fltEntries]uint16 // slots written this section (undo list)
	fltN       int                // undo-list length; -1 = overflowed
	fltOn      bool
	fltBug     FilterBug

	// Word-state index (see the block comment above FilterBug). The
	// epoch is shared with the filter arrays above.
	idx         accfilter.Index
	idxEpochTag uint64 // accfilter.Tag(idxEpoch)
	idxEpoch    uint32
	idxOn       bool // all of RF/WF/WB linear-scan sized
	idxComplete bool // idxOn and no insert collided: misses are authoritative
}

// New builds the hardware model for cfg. It panics on an invalid
// configuration (a construction-time programming error). All buffer
// storage is allocated here, once; Read, Write, and Reset never allocate.
func New(cfg Config) *Clank {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	k := &Clank{}
	k.initInto(cfg, nil, nil)
	return k
}

// Footprint estimates the resident bytes of one detector instance: the
// struct itself (the embedded filter and index arrays dominate) plus the
// dynamically allocated CAM backing. Map-indexed buffers — capacities
// beyond camLinearMax, never used by hardware-plausible configurations —
// are charged a flat per-entry estimate. The figure is a sizing aid for
// fleet capacity planning, not an exact heap accounting.
func (k *Clank) Footprint() uint64 {
	const mapEntry = 48 // measured Go map overhead per small entry, roughly
	f := uint64(unsafe.Sizeof(*k))
	f += uint64(cap(k.rf.words)+cap(k.wf.words)+cap(k.apb.words)) * 4
	f += uint64(cap(k.wb.slots)) * uint64(unsafe.Sizeof(accfilter.Slot{}))
	f += uint64(len(k.rf.idx)+len(k.wf.idx)+len(k.apb.idx)+len(k.wb.idx)) * mapEntry
	return f
}

// initInto initializes *k for cfg, carving linear CAM backing from the
// pools when they are non-nil (see NewArena).
func (k *Clank) initInto(cfg Config, wordPool *[]uint32, slotPool *[]accfilter.Slot) {
	textLo, textHi, _ := cfg.TextWords()
	*k = Clank{
		cfg:        cfg,
		rf:         newAddrCAM(cfg.ReadFirst, wordPool),
		wf:         newAddrCAM(cfg.WriteFirst, wordPool),
		wb:         newWBCAM(cfg.WriteBack, slotPool),
		apb:        newAddrCAM(cfg.AddrPrefix, wordPool),
		textStartW: textLo,
		textEndW:   textHi,
		fltOn:      !cfg.DisableFilter,
	}
	k.fltRead = fltEmpty
	k.fltWrite = fltEmpty
	// The index requires linear CAMs: its slot field assumes Write-back
	// positions below camLinearMax, and map-indexed buffers are already
	// O(1). Unlimited configurations simply leave it off.
	k.idxOn = cfg.ReadFirst <= camLinearMax && cfg.WriteFirst <= camLinearMax &&
		cfg.WriteBack <= camLinearMax
	k.idxComplete = k.idxOn
	k.idxEpoch = 1
	k.idxEpochTag = accfilter.Tag(1)
}

// SetFilterBug installs a deliberately broken filter-invalidation mode.
// Test-only: it exists so meta-tests can prove the verification machinery
// detects a filter missing one invalidation.
func (k *Clank) SetFilterBug(b FilterBug) { k.fltBug = b }

// fltSetRead records that reads of word are answerable by the filter,
// evicting whatever shared the slot.
func (k *Clank) fltSetRead(word uint32) {
	if k.fltOn {
		i := word & fltMask
		k.fltNote(i)
		k.fltRead[i] = word
	}
}

// fltNote records slot i in the undo list so Reset can restore it without
// sweeping the arrays. Duplicates are harmless (restoring twice is
// idempotent); a section that fills the list flips fltN to -1 and Reset
// falls back to the full restore.
func (k *Clank) fltNote(i uint32) {
	if n := k.fltN; n >= 0 {
		if n < fltEntries {
			k.fltTouched[n] = uint16(i)
			k.fltN = n + 1
		} else {
			k.fltN = -1
		}
	}
}

// fltSetWrite records that both reads and writes of word are answerable
// by the filter (the word is write-dominated).
func (k *Clank) fltSetWrite(word uint32) {
	if k.fltOn {
		i := word & fltMask
		k.fltNote(i)
		k.fltRead[i] = word
		k.fltWrite[i] = word
	}
}

// fltSetPass records that writes of word pass through (word untracked,
// nothing records the write: WriteFirst == 0, or an OptNoWFOverflow write
// finding WF or APB full): the write verdict is cached but the read side is
// not — a read of a passthrough word still inserts it into the Read-first
// Buffer, and that insert point-invalidates the write entry.
func (k *Clank) fltSetPass(word uint32) {
	if k.fltOn {
		i := word & fltMask
		k.fltNote(i)
		k.fltWrite[i] = word
	}
}

// fltDropRead invalidates word's read entry, if present. Dropping a word
// that was never cached is a no-op, so callers invalidate on every
// transition that could matter without tracking residency.
func (k *Clank) fltDropRead(word uint32) {
	if i := word & fltMask; k.fltRead[i] == word {
		k.fltRead[i] = ^word
	}
}

// fltDropWrite invalidates word's write entry, if present. Write-first
// entries never need this (words leave WF only at Reset); it exists for
// passthrough entries, whose verdict dies when the word enters the
// Read-first Buffer.
func (k *Clank) fltDropWrite(word uint32) {
	if i := word & fltMask; k.fltWrite[i] == word {
		k.fltWrite[i] = ^word
	}
}

// fltWipeWrites invalidates every live write entry (the read side is
// untouched). Entering untracked mode calls this: passthrough verdicts
// are stale there — an untracked write must checkpoint — and they cannot
// be distinguished from still-valid Write-first entries, so both go
// (dropping a valid entry is always safe, it only costs a re-probe).
func (k *Clank) fltWipeWrites() {
	if k.fltN < 0 {
		k.fltWrite = fltEmpty
		return
	}
	for _, i := range k.fltTouched[:k.fltN] {
		k.fltWrite[i] = ^uint32(i)
	}
}

// idxProbe decodes word's index entry. ok=false means the index has no
// verdict — the entry is stale, holds a colliding word, or the index is
// off or incomplete — and the caller must fall back to the CAM scans. On
// a live miss with a complete index the word is provably untracked and
// the zero answer is authoritative. For a dirty Write-back word inRF is
// reported false even when the word also sits in RF: both decision trees
// consume wbIdx (and its dirty bit) before ever looking at inRF.
func (k *Clank) idxProbe(word uint32) (wbIdx int, inRF, inWF, ok bool) {
	kind, slot, live := k.idx.Lookup(word, k.idxEpochTag)
	if !live {
		return -1, false, false, k.idxComplete
	}
	if kind < accfilter.KindWBC {
		return -1, kind == accfilter.KindRF, kind == accfilter.KindWF, true
	}
	return slot, kind == accfilter.KindWBC, false, true
}

// idxPut records word's tracking state. A collision with a live entry for
// a different word keeps the incumbent and flips the section to
// incomplete: dropping either word from the index silently would turn a
// later authoritative miss into a wrong "untracked" verdict.
func (k *Clank) idxPut(word uint32, kind, slot int) {
	if k.idxOn && !k.idx.Put(word, kind, slot, k.idxEpochTag) {
		k.idxComplete = false
	}
}

// Config returns the configuration the hardware was built with.
func (k *Clank) Config() Config { return k.cfg }

// Reset clears every buffer; it models both the phase-2 checkpoint reset
// and the volatile-state loss of a power failure. For CAM buffers this is
// a length truncation.
func (k *Clank) Reset() {
	k.rf.reset()
	k.wf.reset()
	k.wb.reset()
	k.apb.reset()
	k.wbDirty = 0
	k.untracked = false
	k.accesses = 0
	// Emptying the filter walks the undo list rather than the arrays
	// (the full restore only after an overflow). Checkpoint commit/clear
	// and power-failure reboot both land here, so the filter can never
	// carry entries across a section boundary — and a second Reset before
	// any access finds an empty undo list (reboot idempotency).
	if k.fltN < 0 {
		k.fltRead = fltEmpty
		k.fltWrite = fltEmpty
	} else {
		for _, i := range k.fltTouched[:k.fltN] {
			k.fltRead[i] = ^uint32(i)
			k.fltWrite[i] = ^uint32(i)
		}
	}
	k.fltN = 0
	// Bumping the epoch invalidates every word-state index entry without
	// touching the table; the wrap forces the one real clear per ~2M
	// sections.
	k.idxComplete = k.idxOn
	k.idxEpoch = k.idx.NextEpoch(k.idxEpoch)
	k.idxEpochTag = accfilter.Tag(k.idxEpoch)
}

// SectionAccesses reports how many accesses the current section has
// classified (used by drivers for output- and TEXT-write bracketing).
func (k *Clank) SectionAccesses() int { return k.accesses }

// Driver-owned filter probes. A batched replay loop that streams a
// columnar trace can probe the access filter itself and skip the whole
// Read/Write call on a hit: a hit certifies the verdict is Outcome{}
// (see the filter invariants above), so the only remaining obligation is
// the access count, which the driver accumulates locally and settles in
// bulk with AddAccesses. This matters because on a hit the driver then
// never needs the access's value/prev operands or its exempt/TEXT
// classification — those loads move behind the miss branch. On a miss the
// driver calls the normal entry point, which re-probes (a guaranteed
// miss, two instructions) and counts that access itself.
//
// The contract: every probe hit must be credited via AddAccesses before
// the driver next calls any counting entry point (Read/Write/*Pre) or
// reads SectionAccesses — the count is part of the detector's visible
// state (TEXT-write and output bracketing).

// FilterHitRead reports whether a read of word is certified Outcome{} by
// the access filter. The caller owes one AddAccesses credit per hit.
func (k *Clank) FilterHitRead(word uint32) bool { return k.fltRead[word&fltMask] == word }

// FilterHitWrite reports whether a write of word is certified Outcome{}
// by the access filter. The caller owes one AddAccesses credit per hit.
func (k *Clank) FilterHitWrite(word uint32) bool { return k.fltWrite[word&fltMask] == word }

// AddAccesses credits n accesses the driver classified outside the
// detector: hits of the filter probes above, and TEXT-segment reads under
// OptIgnoreText, whose verdict is always Outcome{} (the TEXT check precedes
// every insert, so a TEXT word is never buffer-resident). The accesses
// still count toward SectionAccesses, so output- and TEXT-write bracketing
// sees the same access stream wherever classification happened.
func (k *Clank) AddAccesses(n int) { k.accesses += n }

// Port exposes the filter probes above, and the word-state index and
// Write-back slots behind them, to code outside this package — the CPU's
// fused executor, which completes certified accesses without a bus call.
// It aliases the detector's own tag arrays, access counter, index, epoch
// tag and slot storage (the Write-back Buffer's full capacity: the index
// is live only for linear-scan sizes, whose backing never moves, and its
// live entries name only occupied slots), so a
// port hit is by construction what Read and Write would decide, and the
// port stays valid across Reset and for the detector's lifetime. A port
// credits its hits to the counter directly, so the AddAccesses obligation
// is settled per access.
func (k *Clank) Port() accfilter.Port {
	return accfilter.Port{
		Read: &k.fltRead, Write: &k.fltWrite, Accesses: &k.accesses,
		Index: &k.idx, Epoch: &k.idxEpochTag, Slots: k.wb.slots[:cap(k.wb.slots)],
	}
}

// IdxMiss reports authoritatively that word is tracked by no buffer: the
// word-state index is live, collision-free, and holds no entry for word.
// A false return says nothing — the word may have an entry, or the index
// may simply be unable to answer. Drivers combine a true miss with
// per-access classification to resolve whole decision-tree branches
// without entering the detector: an exempt write of an untracked word is
// Outcome{} (it cannot be dirty, and the exempt branch precedes every
// insert), and under WriteFirst == 0 a plain write of an untracked word
// in tracked mode is the passthrough Outcome{}.
func (k *Clank) IdxMiss(word uint32) bool {
	_, _, live := k.idx.Lookup(word, k.idxEpochTag)
	return !live && k.idxComplete
}

// BufferedRead reports whether a read of word is answered by a dirty
// Write-back entry, resolved through the word-state index. A hit
// certifies the full verdict: Outcome{FromWB, ReadValue}, no state
// change — drivers that do not consume the read value (no monitor
// attached) can skip the Read call entirely. A hit in the index is
// always authoritative even when the index is incomplete; a miss says
// nothing, and the caller falls back to the normal entry point. The
// caller owes one AddAccesses credit per hit.
func (k *Clank) BufferedRead(word uint32) bool {
	kind, _, live := k.idx.Lookup(word, k.idxEpochTag)
	return live && kind == accfilter.KindWBD
}

// BufferedWrite absorbs a write to a word holding a dirty Write-back
// entry: the stored value is updated in place and the verdict is
// Outcome{Buffered} — exactly the first branch of the write decision
// tree, which precedes every other classification, so probing it first
// is order-equivalent. Dirty entries never revert or move without the
// index being updated (violation, evictClean) or the epoch advancing
// (Reset), so a hit is authoritative. The caller owes one AddAccesses
// credit per hit.
func (k *Clank) BufferedWrite(word, value uint32) bool {
	kind, slot, live := k.idx.Lookup(word, k.idxEpochTag)
	if !live || kind != accfilter.KindWBD {
		return false
	}
	k.wb.slots[slot].Val = value
	return true
}

// Untracked reports whether the detector is in the post-fill untracked mode
// of the Latest-Checkpoint optimization.
func (k *Clank) Untracked() bool { return k.untracked }

// WBDirty returns the number of buffered (idempotency-violating) writes.
func (k *Clank) WBDirty() int { return k.wbDirty }

// WBEntry is a buffered write pending commit to non-volatile memory.
type WBEntry struct {
	Word  uint32
	Value uint32
}

// DirtyEntries appends the buffered writes to dst in ascending address
// order (the checkpoint routine drains these to the scratchpad, then
// applies them). Callers reuse one scratch slice across checkpoints —
// typically DirtyEntries(scratch[:0]) — so the steady state allocates
// nothing.
func (k *Clank) DirtyEntries(dst []WBEntry) []WBEntry {
	for i := range k.wb.slots {
		e := &k.wb.slots[i]
		if e.Dirty {
			dst = append(dst, WBEntry{Word: e.Word, Value: e.Val})
		}
	}
	return sortWBEntries(dst)
}

// sortWBEntries orders a drained dirty set by ascending word address:
// insertion sort for the typical handful of entries, the library sort for
// large privatization buffers.
func sortWBEntries(dst []WBEntry) []WBEntry {
	n := len(dst)
	if n > 32 {
		slices.SortFunc(dst, func(a, b WBEntry) int {
			if a.Word < b.Word {
				return -1
			}
			if a.Word > b.Word {
				return 1
			}
			return 0
		})
		return dst
	}
	for i := 1; i < n; i++ {
		e := dst[i]
		j := i - 1
		for j >= 0 && dst[j].Word > e.Word {
			dst[j+1] = dst[j]
			j--
		}
		dst[j+1] = e
	}
	return dst
}

// Lookup returns the Write-back Buffer's view of a word, if it holds one.
// Drivers use it to service loads when the buffer shadows memory.
func (k *Clank) Lookup(word uint32) (uint32, bool) {
	if i := k.wb.find(word); i >= 0 && k.wb.slots[i].Dirty {
		return k.wb.slots[i].Val, true
	}
	return 0, false
}

func (k *Clank) exempt(pc uint32) bool {
	return k.cfg.ExemptPCs != nil && k.cfg.ExemptPCs[pc]
}

func (k *Clank) inText(word uint32) bool {
	return k.cfg.Opts&OptIgnoreText != 0 && word >= k.textStartW && word < k.textEndW
}

func (k *Clank) prefix(w uint32) uint32 { return w >> k.cfg.PrefixLowBits }

// ensurePrefix makes sure w's prefix is resident in the Address Prefix
// Buffer, adding it if there is room. It returns false on APB overflow.
func (k *Clank) ensurePrefix(w uint32) bool {
	if k.cfg.AddrPrefix == 0 {
		return true
	}
	p := k.prefix(w)
	if k.apb.contains(p) {
		return true
	}
	if k.apb.full() {
		return false
	}
	k.apb.insert(p)
	return true
}

// Read classifies a read of word (whose current non-volatile value is
// memValue) performed by the instruction at pc. The filter probe up front
// answers re-reads of already-tracked words without touching the CAMs;
// the function is small enough to inline into monitored-bus drivers.
func (k *Clank) Read(word, memValue, pc uint32) Outcome {
	if k.fltRead[word&fltMask] == word {
		k.accesses++
		return outcomeOK
	}
	return k.readSlow(word, memValue, pc)
}

// ReadPre is Read for drivers that pre-classify accesses: exempt carries
// the verdict of the ExemptPCs lookup for the access's pc, and inText the
// verdict of the TEXT test — word inside the TextWords window AND the
// window active (OptIgnoreText set). The batch replay engine computes the
// window membership once per trace and ANDs the per-config active flag
// per slot; outcomes match Read(word, memValue, pc) exactly when the two
// bits agree with the per-pc classification. Like Read, it stays inside
// the inliner budget.
func (k *Clank) ReadPre(word, memValue uint32, exempt, inText bool) Outcome {
	if k.fltRead[word&fltMask] == word {
		k.accesses++
		return outcomeOK
	}
	return k.readSlowPre(word, memValue, exempt, inText)
}

func (k *Clank) readSlow(word, memValue, pc uint32) Outcome {
	return k.readSlowPre(word, memValue, k.exempt(pc), k.inText(word))
}

func (k *Clank) readSlowPre(word, memValue uint32, exempt, inText bool) Outcome {
	k.accesses++
	wbIdx, inRF, inWF, ok := k.idxProbe(word)
	if !ok {
		wbIdx, inRF, inWF = k.wb.find(word), k.rf.contains(word), k.wf.contains(word)
	}
	// The Write-back lookup answers both Write-back questions: a dirty
	// entry shadows memory unconditionally (its value must be visible to
	// subsequent reads), a clean saved-read entry implies the word is
	// already tracked.
	if wbIdx >= 0 {
		if k.wb.slots[wbIdx].Dirty {
			return Outcome{FromWB: true, ReadValue: k.wb.slots[wbIdx].Val}
		}
		k.fltSetRead(word)
		return Outcome{}
	}
	if exempt || inText || k.untracked {
		// TEXT and untracked-mode read verdicts are cacheable: both are
		// pc-independent (any read of the word returns Outcome{}), both
		// mutate nothing, and both outlive every filter entry — TEXT
		// membership is configuration-static and TEXT words can never
		// become buffer-resident while OptIgnoreText is on (this branch
		// precedes every insert), while untracked mode ends only at Reset
		// and the one transition that could make such a read stale (the
		// word acquiring a dirty Write-back entry, possible only for
		// RF-resident words) already invalidates through the violation
		// path. Exempt-only verdicts stay uncached: they depend on pc,
		// and a later read of the same word from a non-exempt pc must
		// still reach the insert path. Without this, literal pools and
		// flash-resident lookup tables pay the full classification on
		// every load, as does every read after a section overflows into
		// untracked mode.
		if inText || k.untracked {
			k.fltSetRead(word)
		}
		return Outcome{}
	}
	if inRF {
		k.fltSetRead(word)
		return Outcome{}
	}
	if inWF {
		k.fltSetWrite(word)
		return Outcome{}
	}
	// Insert into the Read-first Buffer.
	if k.rf.full() {
		return k.fillOnRead(ReasonRFOverflow)
	}
	if !k.ensurePrefix(word) {
		return k.fillOnRead(ReasonAPOverflow)
	}
	k.rf.insert(word)
	// The word is now read-dominated: a cached passthrough-write verdict
	// (WriteFirst == 0) is stale — later writes must reach the violation
	// path.
	k.fltDropWrite(word)
	// Remember the read value for false-write detection, co-opting spare
	// Write-back capacity (section 3.2.1).
	if k.cfg.Opts&OptIgnoreFalseWrites != 0 && k.cfg.WriteBack > 0 && !k.wb.full() {
		k.wb.insert(word, memValue, false)
		k.idxPut(word, accfilter.KindWBC, len(k.wb.slots)-1)
	} else {
		k.idxPut(word, accfilter.KindRF, 0)
	}
	k.fltSetRead(word)
	return Outcome{}
}

func (k *Clank) fillOnRead(r Reason) Outcome {
	if k.cfg.Opts&OptLatestCheckpoint != 0 {
		// Untracked writes checkpoint (Latest-Checkpoint is due), so every
		// cached write verdict from tracked mode is now stale.
		k.untracked = true
		k.fltWipeWrites()
		return Outcome{}
	}
	return Outcome{NeedCheckpoint: true, Reason: r}
}

// Write classifies a write of value to word (whose current non-volatile
// value is memValue) performed by the instruction at pc. The filter probe
// up front answers re-writes of write-dominated words without touching
// the CAMs.
func (k *Clank) Write(word, value, memValue, pc uint32) Outcome {
	if k.fltWrite[word&fltMask] == word {
		k.accesses++
		return outcomeOK
	}
	return k.writeSlow(word, value, memValue, pc)
}

// WritePre is Write for drivers that pre-classify accesses; see ReadPre.
func (k *Clank) WritePre(word, value, memValue uint32, exempt, inText bool) Outcome {
	if k.fltWrite[word&fltMask] == word {
		k.accesses++
		return outcomeOK
	}
	return k.writeSlowPre(word, value, memValue, exempt, inText)
}

func (k *Clank) writeSlow(word, value, memValue, pc uint32) Outcome {
	return k.writeSlowPre(word, value, memValue, k.exempt(pc), k.inText(word))
}

func (k *Clank) writeSlowPre(word, value, memValue uint32, exempt, inText bool) Outcome {
	k.accesses++
	wbIdx, inRF, inWF, ok := k.idxProbe(word)
	if !ok {
		wbIdx, inRF, inWF = k.wb.find(word), k.rf.contains(word), k.wf.contains(word)
	}
	if wbIdx >= 0 && k.wb.slots[wbIdx].Dirty {
		// Already buffered: update in place, never touches memory.
		k.wb.slots[wbIdx].Val = value
		return Outcome{Buffered: true}
	}
	if exempt {
		return Outcome{}
	}
	if inText {
		// Self-modifying code support: a TEXT write forces a checkpoint
		// first and then passes through as the opening access of the
		// fresh section (section 3.2.4).
		if k.accesses > 1 {
			return Outcome{NeedCheckpoint: true, Reason: ReasonTextWrite}
		}
		return Outcome{}
	}
	if inWF {
		// Write-dominated: safe even in untracked mode — reads of this
		// address were ignored while it sat in the Write-first Buffer,
		// so no untracked read can depend on its old value.
		k.fltSetWrite(word)
		return Outcome{}
	}
	if inRF {
		// Known read-dominated: the violation machinery (Write-back
		// buffering or checkpoint) handles it, untracked or not; any
		// untracked reads of it were served consistently.
		return k.violation(word, value, memValue, wbIdx)
	}
	if k.untracked {
		// Latest-Checkpoint mode (section 3.2.5): a write to an address
		// we were no longer able to track may overwrite a value an
		// untracked read depended on — the delayed checkpoint is due.
		return Outcome{NeedCheckpoint: true, Reason: ReasonWriteInFill}
	}
	// Untracked address: record as write-dominated.
	if k.cfg.WriteFirst == 0 {
		// No Write-first Buffer: writes to unread addresses pass through.
		// A later read of this address will classify it read-dominated,
		// pessimistically, which is safe. The verdict is cacheable on the
		// write side only: it holds until the word enters the Read-first
		// Buffer (the insert drops it) or the section goes untracked
		// (fillOnRead wipes all write entries). Exempt and TEXT status
		// cannot flip it — exempt writes return Outcome{} anyway, and a
		// TEXT word would have been classified above, never here.
		k.fltSetPass(word)
		return Outcome{}
	}
	// Under OptNoWFOverflow a write that finds no room passes through
	// untracked. That verdict is the passthrough one above in all but
	// name, and caches under the same invalidation: WF and APB only fill
	// up until Reset, so the word stays unrecordable until it enters the
	// Read-first Buffer or the section goes untracked.
	if k.wf.full() {
		if k.cfg.Opts&OptNoWFOverflow != 0 {
			k.fltSetPass(word)
			return Outcome{}
		}
		return k.fillOnWrite(ReasonWFOverflow)
	}
	if !k.ensurePrefix(word) {
		if k.cfg.Opts&OptNoWFOverflow != 0 {
			k.fltSetPass(word)
			return Outcome{}
		}
		return k.fillOnWrite(ReasonAPOverflow)
	}
	k.wf.insert(word)
	k.idxPut(word, accfilter.KindWF, 0)
	k.fltSetWrite(word)
	return Outcome{}
}

func (k *Clank) fillOnWrite(r Reason) Outcome {
	// Even with Latest-Checkpoint the fill-causing access is itself a
	// write, so the delayed checkpoint is due immediately.
	return Outcome{NeedCheckpoint: true, Reason: r}
}

// violation handles a write to a read-dominated word. wbIdx is the word's
// Write-back slot (clean, from the saved-read optimization) or -1.
func (k *Clank) violation(word, value, memValue uint32, wbIdx int) Outcome {
	if k.cfg.Opts&OptIgnoreFalseWrites != 0 {
		if wbIdx >= 0 && k.wb.slots[wbIdx].Val == value {
			// The write does not change the stored value: let it
			// through (section 3.2.1).
			return Outcome{}
		}
		if wbIdx < 0 && value == memValue {
			// No saved copy, but the driver knows the current value
			// matches; hardware realizes this as a compare against the
			// read bus. Still safe: memory is unchanged.
			return Outcome{}
		}
	}
	if k.cfg.WriteBack == 0 {
		return Outcome{NeedCheckpoint: true, Reason: ReasonViolation}
	}
	// The word is about to gain a dirty Write-back entry: reads must now
	// be served FromWB, so any cached read-safe verdict is stale. (This
	// also covers the OptRemoveDuplicates RF removal below — same word.)
	if k.fltBug != FilterBugSkipViolationInvalidate {
		k.fltDropRead(word)
	}
	if wbIdx >= 0 {
		// Upgrade the saved-read entry in place.
		k.wb.slots[wbIdx].Val = value
		k.wb.slots[wbIdx].Dirty = true
		k.wbDirty++
		k.idxPut(word, accfilter.KindWBD, wbIdx)
	} else {
		if k.wb.full() {
			if !k.evictClean() {
				return Outcome{NeedCheckpoint: true, Reason: ReasonWBOverflow}
			}
		}
		k.wb.insert(word, value, true)
		k.wbDirty++
		k.idxPut(word, accfilter.KindWBD, len(k.wb.slots)-1)
	}
	if k.cfg.Opts&OptRemoveDuplicates != 0 {
		// The dirty Write-back entry now answers all future accesses to
		// this address; free the Read-first slot (section 3.2.2). The index
		// entry stays accfilter.KindWBD either way — the dirty Write-back entry, not
		// RF membership, decides every later verdict for this word.
		k.rf.remove(word)
	}
	return Outcome{Buffered: true}
}

// evictClean drops one saved-read (clean) entry to make room for a dirty
// one, choosing deterministically (lowest address). Returns false if none
// exist.
func (k *Clank) evictClean() bool {
	victim := -1
	for i := range k.wb.slots {
		if !k.wb.slots[i].Dirty &&
			(victim < 0 || k.wb.slots[i].Word < k.wb.slots[victim].Word) {
			victim = i
		}
	}
	if victim < 0 {
		return false
	}
	// Conservative invalidation: the evicted word stays read-safe (it is
	// still in RF and reads of it return Outcome{}), but dropping it keeps
	// the invariant simple — a word's entry never outlives any Write-back
	// transition involving it.
	vword := k.wb.slots[victim].Word
	k.fltDropRead(vword)
	k.wb.removeAt(victim)
	// Index maintenance: the victim falls back to plain RF tracking (clean
	// entries only ever shadow saved reads, so the word is still in RF),
	// and removeAt slid the tail slot into the vacated position.
	k.idxPut(vword, accfilter.KindRF, 0)
	if victim < len(k.wb.slots) {
		moved := k.wb.slots[victim]
		kind := accfilter.KindWBC
		if moved.Dirty {
			kind = accfilter.KindWBD
		}
		k.idxPut(moved.Word, kind, victim)
	}
	return true
}
