package scheme

import "repro/internal/clank"

// DefaultInterval is the default DiCA commit interval in wall cycles:
// checkpoints land a few times per typical boot, like DiCA's
// voltage-derived checkpoint placement.
const DefaultInterval = 4000

// DiCAFactory builds the DiCA-style differential checkpoint scheme. Zero
// values select the defaults.
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
	return &DiCA{priv: newPrivatizer(cfg, f.BufWords), interval: interval}
}

// DiCA models DiCA-style differential checkpointing: instead of snapshotting
// all of RAM on a timer, each checkpoint persists only the words dirtied
// since the previous one. The dirty set is exactly the privatization
// buffer — stores are absorbed there and drained through the shared
// journal+slot commit program, so a differential checkpoint costs
// O(dirty words), not O(RAM). Commits fire every interval wall cycles
// since the last commit (the timer restarts at each boot: a fresh boot is
// a fresh charge cycle), or early when the dirty buffer fills
// (ReasonWBOverflow).
type DiCA struct {
	priv     privatizer
	interval uint64
}

// Name implements Scheme.
func (d *DiCA) Name() string { return "dica" }

// Read implements Scheme.
func (d *DiCA) Read(word, memWord, pc uint32) clank.Outcome {
	return d.priv.read(word, memWord, pc)
}

// Write implements Scheme.
func (d *DiCA) Write(word, newWord, memWord, pc uint32) clank.Outcome {
	return d.priv.write(word, newWord, memWord, pc)
}

// Lookup implements Scheme.
func (d *DiCA) Lookup(word uint32) (uint32, bool) { return d.priv.lookup(word) }

// NoteIgnoredAccess implements Scheme.
func (d *DiCA) NoteIgnoredAccess() { d.priv.noteIgnoredAccess() }

// SectionAccesses implements Scheme.
func (d *DiCA) SectionAccesses() int { return d.priv.sectionAccesses() }

// NextCommitIn implements Scheme: the remaining wall cycles of the
// current interval.
func (d *DiCA) NextCommitIn(progress, sinceCommit uint64) (uint64, clank.Reason) {
	if sinceCommit >= d.interval {
		return 0, clank.ReasonCommitInterval
	}
	return d.interval - sinceCommit, clank.ReasonCommitInterval
}

// DirtyEntries implements Scheme.
func (d *DiCA) DirtyEntries(dst []clank.WBEntry) []clank.WBEntry {
	return d.priv.dirtyEntries(dst)
}

// Committed implements Scheme: the differential is persistent; start
// accumulating the next one.
func (d *DiCA) Committed(progress uint64) { d.priv.drop() }

// Reboot implements Scheme: the un-committed differential is gone.
func (d *DiCA) Reboot(progress uint64) { d.priv.drop() }

// Footprint implements Scheme.
func (d *DiCA) Footprint() uint64 { return d.priv.buf.Footprint() }
