// Package refmon implements the infinite-resource idempotence reference
// monitor from paper section 5. It shadows an execution section with
// unbounded read/write sets and flags the exact moment a non-volatile write
// would break restartability. The high-performance Clank implementation is
// verified against it: Clank must signal a checkpoint no later than the
// monitor detects a violation (see internal/verify), and both the policy
// simulator and the intermittent machine run it alongside every experiment
// as a dynamic checker.
//
// A violation can only be raised at WriteNV, for a word the section read
// earlier, and only the first value read counts. So a caller may omit
// ReadNV for a word the section can provably never pass to WriteNV, or
// when a ReadNV of the same word and value is certain to follow before
// any WriteNV of it, without changing any verdict (only Tracked and
// ReadDominated can differ). The policy simulator does both: it skips
// reads of words its whole trace never stores to, and reads whose word's
// next access is a load of the same value.
//
// Both sets live in one open-addressed word table stamped with a section
// epoch, so Reset (once per checkpoint) is O(1) however large an earlier
// section grew the table, and each access costs a single probe.
package refmon

import (
	"fmt"
	"math/bits"
)

// Violation describes a detected idempotency break: re-executing the
// current section would observe a different value for Word than the first
// execution did.
type Violation struct {
	Word     uint32
	PC       uint32
	OldValue uint32
	NewValue uint32
}

func (v *Violation) Error() string {
	return fmt.Sprintf("refmon: idempotency violation at word %#x (pc %#x): %#x overwritten with %#x after being read",
		v.Word<<2, v.PC, v.OldValue, v.NewValue)
}

// Entry kinds, the low bit of entry.tag.
const (
	kindRead  = 0 // read-dominated: value is the first NV value observed
	kindWrite = 1 // write-dominated: written before ever being read
)

const (
	minSlots = 16
	// epochWrap is the first epoch that no longer fits the tag's upper 31
	// bits; Reset clears the table for real when it gets there.
	epochWrap = 1 << 31
	// hashMul is 2^32 divided by the golden ratio (Fibonacci hashing):
	// consecutive word addresses land far apart in the table.
	hashMul = 0x9E3779B9
)

// entry is one tracked word: 12 bytes.
type entry struct {
	word  uint32
	value uint32
	// tag is epoch<<1 | kind. A slot whose epoch is not the monitor's
	// current one is empty.
	tag uint32
}

// Monitor tracks one section of execution with unbounded state. Reads that
// were served from volatile buffers (Clank's Write-back Buffer) must NOT be
// reported to ReadNV; they do not depend on non-volatile contents.
//
// The read-dominated and write-dominated sets are one linear-probing hash
// table keyed by word. Every slot carries the epoch of the section that
// filled it; Reset bumps the epoch, which empties the table without
// touching it. Within an epoch slots only go from empty to full, so a probe
// may stop at the first stale slot. The table grows at 3/4 load and never
// shrinks: its size tracks the largest section seen.
type Monitor struct {
	slots []entry // power-of-two length
	shift uint32  // 32 - log2(len(slots)): hash bits kept
	epoch uint32  // current section, 1..epochWrap-1; 0 marks never-used slots
	live  int     // words tracked in the current section
}

// New returns a monitor for a fresh section.
func New() *Monitor {
	m := &Monitor{epoch: 1}
	m.alloc(minSlots)
	return m
}

// alloc installs an empty table of n slots (a power of two).
func (m *Monitor) alloc(n int) {
	m.slots = make([]entry, n)
	m.shift = 32 - uint32(bits.TrailingZeros(uint(n)))
}

// Reset begins a new section (a committed checkpoint).
func (m *Monitor) Reset() {
	m.live = 0
	m.epoch++
	if m.epoch == epochWrap { // stale stamps could alias: really clear
		clear(m.slots)
		m.epoch = 1
	}
}

// find returns word's slot in the current section, or the empty slot where
// it would be inserted.
func (m *Monitor) find(word uint32) (e *entry, ok bool) {
	mask := uint32(len(m.slots) - 1)
	for i := (word * hashMul) >> m.shift; ; i = (i + 1) & mask {
		e = &m.slots[i]
		if e.tag>>1 != m.epoch {
			return e, false
		}
		if e.word == word {
			return e, true
		}
	}
}

// insert fills the empty slot e (from find) with word, growing the table
// first if the insertion would pass 3/4 load.
func (m *Monitor) insert(e *entry, word, value, kind uint32) {
	if m.live >= len(m.slots)/4*3 {
		m.grow()
		e, _ = m.find(word)
	}
	*e = entry{word: word, value: value, tag: m.epoch<<1 | kind}
	m.live++
}

// grow doubles the table, re-inserting only the current section's words.
func (m *Monitor) grow() {
	old := m.slots
	m.alloc(2 * len(old))
	for _, e := range old {
		if e.tag>>1 == m.epoch {
			dst, _ := m.find(e.word)
			*dst = e
		}
	}
}

// ReadNV records that the section read word from non-volatile memory and
// observed value. Reads of write-dominated words are not tracked: the
// section's own (deterministically re-executed) write produces the value
// the read observes, so re-execution cannot diverge through them.
func (m *Monitor) ReadNV(word, value uint32) {
	if e, ok := m.find(word); !ok {
		m.insert(e, word, value, kindRead)
	}
}

// WriteNV records a write of value to word that commits to non-volatile
// memory. It returns a *Violation if the section previously read a
// different value from that word: on re-execution after a power failure the
// read would observe this new value instead, diverging from the first
// execution. A write of the identical value is harmless (a "false write").
func (m *Monitor) WriteNV(word, value, pc uint32) *Violation {
	e, ok := m.find(word)
	if !ok {
		m.insert(e, word, value, kindWrite)
		return nil
	}
	if e.tag&1 == kindRead && e.value != value {
		return &Violation{Word: word, PC: pc, OldValue: e.value, NewValue: value}
	}
	return nil
}

// ReadDominated reports whether the monitor classified word as
// read-dominated in the current section.
func (m *Monitor) ReadDominated(word uint32) bool {
	e, ok := m.find(word)
	return ok && e.tag&1 == kindRead
}

// WriteDominated reports whether the monitor classified word as
// write-dominated in the current section.
func (m *Monitor) WriteDominated(word uint32) bool {
	e, ok := m.find(word)
	return ok && e.tag&1 == kindWrite
}

// Tracked returns how many distinct words the section has touched.
func (m *Monitor) Tracked() int { return m.live }
