package scheme

import (
	"repro/internal/accfilter"
	"repro/internal/clank"
)

// defaultBufWords sizes the privatization buffer: 64 words comfortably
// exceeds the largest single-instruction store burst (an STM/PUSH writes
// at most nine words), so a buffer-overflow veto can always make progress
// after its forced commit re-executes the instruction.
const defaultBufWords = 64

// minBufWords floors configurable capacities for the same reason: a
// buffer smaller than one instruction's store burst would veto, commit,
// re-execute, and veto again forever.
const minBufWords = 16

// DefaultTaskLen is the default Alpaca task length in useful cycles. At
// MiBench call densities it yields tasks of a few hundred instructions —
// the granularity Alpaca's hand-split tasks land at.
const DefaultTaskLen = 2000

// DefaultInterval is the default DiCA commit interval in wall cycles:
// checkpoints land a few times per typical boot, like DiCA's
// voltage-derived checkpoint placement.
const DefaultInterval = 4000

// AlpacaFactory builds the Alpaca-style task-based scheme. Zero values
// select the defaults.
//
// Alpaca statically splits the program into tasks: every store inside a
// task is privatized into the task's write buffer, and reaching a task
// boundary commits the buffer plus registers atomically (the shared
// two-phase commit program). There are no dynamic checkpoints: re-executing
// a torn task is idempotent because none of its writes reached
// non-volatile memory.
//
// The static split is modeled on the useful-progress clock: a boundary
// sits every TaskLen cycles after the last committed boundary. Because the
// base re-derives from the committed progress cycle at every commit and
// reboot, a re-executed task sees its boundary at exactly the program
// point the first execution did — the property that makes the model's
// "static" split honest without a task-splitting compiler. A full buffer
// forces an early split (ReasonWBOverflow), exactly as Alpaca's compiler
// would have had to split the task.
type AlpacaFactory struct {
	// TaskLen is the task length in useful cycles (0 = DefaultTaskLen).
	TaskLen uint64
	// BufWords is the privatization buffer capacity in words
	// (0 = defaultBufWords; floored at minBufWords).
	BufWords int
}

// Name implements Factory.
func (AlpacaFactory) Name() string { return "alpaca" }

// New implements Factory.
func (f AlpacaFactory) New(cfg clank.Config) Scheme {
	taskLen := f.TaskLen
	if taskLen == 0 {
		taskLen = DefaultTaskLen
	}
	return newPrivatizer(cfg, f.BufWords, taskLen, clank.ReasonTaskBoundary, true)
}

// DiCAFactory builds the DiCA-style differential checkpoint scheme. Zero
// values select the defaults.
//
// Instead of snapshotting all of RAM on a timer, each DiCA checkpoint
// persists only the words dirtied since the previous one. The dirty set is
// exactly the privatization buffer — stores are absorbed there and drained
// through the shared journal+slot commit program, so a differential
// checkpoint costs O(dirty words), not O(RAM). Commits fire every Interval
// wall cycles since the last commit (the timer restarts at each boot: a
// fresh boot is a fresh charge cycle), or early when the dirty buffer
// fills (ReasonWBOverflow).
type DiCAFactory struct {
	// Interval is the wall-cycle spacing between commits (0 =
	// DefaultInterval).
	Interval uint64
	// BufWords is the dirty-word buffer capacity in words
	// (0 = defaultBufWords; floored at minBufWords).
	BufWords int
}

// Name implements Factory.
func (DiCAFactory) Name() string { return "dica" }

// New implements Factory.
func (f DiCAFactory) New(cfg clank.Config) Scheme {
	interval := f.Interval
	if interval == 0 {
		interval = DefaultInterval
	}
	return newPrivatizer(cfg, f.BufWords, interval, clank.ReasonCommitInterval, false)
}

// privatizer is the write-privatizing scheme Alpaca and DiCA share: every
// store is absorbed into a WriteBuf and never reaches non-volatile memory
// mid-section, so re-executing a torn section cannot observe its own
// partial writes — idempotency by construction, no detection needed. Reads
// are served from the buffer when it shadows the word. The schemes differ
// only in the commit trigger: a period, the reason a scheduled commit
// carries, and which clock the period runs on (useful cycles from the
// committed base, or wall cycles since the last commit).
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
//
// Both bypasses sit behind the buffered-word check, so a buffered word's
// verdict is the same for every pc: served from the buffer, or absorbed
// into it. That is the dirty Write-back certificate Port hands out.
type privatizer struct {
	buf            *clank.WriteBuf
	exempt         map[uint32]bool
	textLo, textHi uint32
	textOn         bool
	accesses       int

	period   uint64
	reason   clank.Reason
	fromBase bool   // period counts useful cycles from base, not wall cycles since the last commit
	base     uint64 // committed progress at the last commit or reboot
}

func newPrivatizer(cfg clank.Config, bufWords int, period uint64, reason clank.Reason, fromBase bool) *privatizer {
	if bufWords <= 0 {
		bufWords = defaultBufWords
	}
	if bufWords < minBufWords {
		bufWords = minBufWords
	}
	lo, hi, on := cfg.TextWords()
	return &privatizer{
		buf:      clank.NewWriteBuf(bufWords),
		exempt:   cfg.ExemptPCs,
		textLo:   lo,
		textHi:   hi,
		textOn:   on,
		period:   period,
		reason:   reason,
		fromBase: fromBase,
	}
}

// Read implements Scheme.
func (p *privatizer) Read(word, memWord, pc uint32) clank.Outcome {
	p.accesses++
	if v, ok := p.buf.Get(word); ok {
		return clank.Outcome{FromWB: true, ReadValue: v}
	}
	return clank.Outcome{}
}

// Write implements Scheme.
func (p *privatizer) Write(word, newWord, memWord, pc uint32) clank.Outcome {
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

// Lookup implements Scheme.
func (p *privatizer) Lookup(word uint32) (uint32, bool) { return p.buf.Get(word) }

// AddAccesses implements Scheme.
func (p *privatizer) AddAccesses(n int) { p.accesses += n }

// SectionAccesses implements Scheme.
func (p *privatizer) SectionAccesses() int { return p.accesses }

// NextCommitIn implements Scheme: the cycles left until the next task
// boundary (Alpaca, on the useful-progress clock) or until the current
// interval ends (DiCA, on the wall clock since the last commit).
func (p *privatizer) NextCommitIn(progress, sinceCommit uint64) (uint64, clank.Reason) {
	at, end := sinceCommit, p.period
	if p.fromBase {
		at, end = progress, p.base+p.period
	}
	if at >= end {
		return 0, p.reason
	}
	return end - at, p.reason
}

// DirtyEntries implements Scheme.
func (p *privatizer) DirtyEntries(dst []clank.WBEntry) []clank.WBEntry {
	return p.buf.DirtyEntries(dst)
}

// Committed implements Scheme: after a commit the buffered writes are
// persistent, and after a reboot they died with the power; either way the
// section state goes and the schedule re-bases at progress, so an
// interrupted section re-runs with the same schedule from an empty buffer.
func (p *privatizer) Committed(progress uint64) {
	p.base = progress
	p.buf.Reset()
	p.accesses = 0
}

// Footprint implements Scheme.
func (p *privatizer) Footprint() uint64 { return p.buf.Footprint() }

// Port implements Ported: the buffer's port (clank.WriteBuf.Port), which
// certifies buffered words, TEXT literal loads and, while its index is
// complete, reads of unbuffered words ("count it, proceed", as Read does),
// and counts into the section access count.
func (p *privatizer) Port() accfilter.Port { return p.buf.Port(&p.accesses) }
