package scheme

import "repro/internal/clank"

// defaultBufWords sizes the privatization buffer: 64 words keeps the
// underlying CAM on its linear (map-free, alloc-free) path and comfortably
// exceeds the largest single-instruction store burst (an STM/PUSH writes
// at most nine words), so a buffer-overflow veto can always make progress
// after its forced commit re-executes the instruction.
const defaultBufWords = 64

// minBufWords floors configurable capacities for the same reason: a
// buffer smaller than one instruction's store burst would veto, commit,
// re-execute, and veto again forever.
const minBufWords = 16

// privatizer is the write-privatizing substrate the Alpaca and DiCA
// schemes share: every store is absorbed into a WriteBuf and never reaches
// non-volatile memory mid-section, so re-executing a torn section cannot
// observe its own partial writes — idempotency by construction, no
// detection needed. Reads are served from the buffer when it shadows the
// word. What differs between the schemes is only the commit trigger
// (NextCommitIn), which each owner supplies.
//
// Two access classes bypass privatization, mirroring the detector's own
// decision order (clank.writeSlowPre) so the verify harnesses see
// identical semantics at exempt PCs and TEXT words:
//
//   - Compiler-exempt stores (ExemptPCs) pass through — unless the word is
//     already privately buffered, in which case the buffered copy is
//     updated so later reads cannot observe a stale shadow.
//   - TEXT stores (OptIgnoreText) force a commit first and then pass
//     through as the opening access of the fresh section; the re-executed
//     store rewrites the same value, so the passthrough is idempotent.
type privatizer struct {
	buf            *clank.WriteBuf
	exempt         map[uint32]bool
	textLo, textHi uint32
	textOn         bool
	accesses       int
}

func newPrivatizer(cfg clank.Config, bufWords int) privatizer {
	if bufWords <= 0 {
		bufWords = defaultBufWords
	}
	if bufWords < minBufWords {
		bufWords = minBufWords
	}
	lo, hi, on := cfg.TextWords()
	return privatizer{
		buf:    clank.NewWriteBuf(bufWords),
		exempt: cfg.ExemptPCs,
		textLo: lo,
		textHi: hi,
		textOn: on,
	}
}

func (p *privatizer) read(word, memWord, pc uint32) clank.Outcome {
	p.accesses++
	if v, ok := p.buf.Get(word); ok {
		return clank.Outcome{FromWB: true, ReadValue: v}
	}
	return clank.Outcome{}
}

func (p *privatizer) write(word, newWord, memWord, pc uint32) clank.Outcome {
	p.accesses++
	if _, ok := p.buf.Get(word); ok {
		// Already privatized: update in place (cannot fail — present).
		p.buf.Put(word, newWord)
		return clank.Outcome{Buffered: true}
	}
	if p.exempt != nil && p.exempt[pc] {
		return clank.Outcome{}
	}
	if p.textOn && word-p.textLo < p.textHi-p.textLo {
		// Self-modifying code: commit first, then pass through as the
		// fresh section's opening access (same rule as the detector).
		if p.accesses > 1 {
			return clank.Outcome{NeedCheckpoint: true, Reason: clank.ReasonTextWrite}
		}
		return clank.Outcome{}
	}
	if p.buf.Put(word, newWord) {
		return clank.Outcome{Buffered: true}
	}
	// Buffer full: the section must commit (an early task split /
	// premature differential checkpoint); the re-executed store then
	// lands in the drained buffer.
	return clank.Outcome{NeedCheckpoint: true, Reason: clank.ReasonWBOverflow}
}

func (p *privatizer) lookup(word uint32) (uint32, bool) { return p.buf.Get(word) }

func (p *privatizer) noteIgnoredAccess() { p.accesses++ }

func (p *privatizer) sectionAccesses() int { return p.accesses }

func (p *privatizer) dirtyEntries(dst []clank.WBEntry) []clank.WBEntry {
	return p.buf.DirtyEntries(dst)
}

// drop discards all volatile section state (after a commit persisted it,
// or a reboot destroyed it).
func (p *privatizer) drop() {
	p.buf.Reset()
	p.accesses = 0
}
