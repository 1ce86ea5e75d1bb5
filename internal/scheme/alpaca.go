package scheme

import "repro/internal/clank"

// DefaultTaskLen is the default Alpaca task length in useful cycles. At
// MiBench call densities it yields tasks of a few hundred instructions —
// the granularity Alpaca's hand-split tasks land at.
const DefaultTaskLen = 2000

// AlpacaFactory builds the Alpaca-style task-based scheme. Zero values
// select the defaults.
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
	return &Alpaca{priv: newPrivatizer(cfg, f.BufWords), taskLen: taskLen}
}

// Alpaca models Alpaca-style task-based intermittent execution: the
// program is statically split into tasks, every store inside a task is
// privatized into the task's write buffer, and reaching a task boundary
// commits the buffer plus registers atomically (the shared two-phase
// commit program). There are no dynamic checkpoints: re-executing a torn
// task is idempotent because none of its writes reached non-volatile
// memory.
//
// The static split is modeled on the useful-progress clock: a boundary
// sits every taskLen cycles after the last committed boundary. Because the
// base re-derives from the committed progress cycle at every commit and
// reboot, a re-executed task sees its boundary at exactly the program
// point the first execution did — the property that makes the model's
// "static" split honest without a task-splitting compiler. A full buffer
// forces an early split (ReasonWBOverflow), exactly as Alpaca's compiler
// would have had to split the task.
type Alpaca struct {
	priv    privatizer
	taskLen uint64
	base    uint64 // committed progress at the last task boundary
}

// Name implements Scheme.
func (a *Alpaca) Name() string { return "alpaca" }

// Read implements Scheme.
func (a *Alpaca) Read(word, memWord, pc uint32) clank.Outcome {
	return a.priv.read(word, memWord, pc)
}

// Write implements Scheme.
func (a *Alpaca) Write(word, newWord, memWord, pc uint32) clank.Outcome {
	return a.priv.write(word, newWord, memWord, pc)
}

// Lookup implements Scheme.
func (a *Alpaca) Lookup(word uint32) (uint32, bool) { return a.priv.lookup(word) }

// NoteIgnoredAccess implements Scheme.
func (a *Alpaca) NoteIgnoredAccess() { a.priv.noteIgnoredAccess() }

// SectionAccesses implements Scheme.
func (a *Alpaca) SectionAccesses() int { return a.priv.sectionAccesses() }

// NextCommitIn implements Scheme: the next task boundary in useful cycles.
func (a *Alpaca) NextCommitIn(progress, sinceCommit uint64) (uint64, clank.Reason) {
	boundary := a.base + a.taskLen
	if progress >= boundary {
		return 0, clank.ReasonTaskBoundary
	}
	return boundary - progress, clank.ReasonTaskBoundary
}

// DirtyEntries implements Scheme.
func (a *Alpaca) DirtyEntries(dst []clank.WBEntry) []clank.WBEntry {
	return a.priv.dirtyEntries(dst)
}

// Committed implements Scheme: the task committed; the next one starts
// here.
func (a *Alpaca) Committed(progress uint64) {
	a.base = progress
	a.priv.drop()
}

// Reboot implements Scheme: execution resumed from the checkpoint at
// progress, which by construction was a task boundary — the interrupted
// task re-runs with the same boundary schedule.
func (a *Alpaca) Reboot(progress uint64) {
	a.base = progress
	a.priv.drop()
}

// Footprint implements Scheme.
func (a *Alpaca) Footprint() uint64 { return a.priv.buf.Footprint() }
