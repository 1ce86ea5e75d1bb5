package scheme

import "repro/internal/clank"

// ClankFactory builds the paper's own runtime: the idempotency-violation
// detector deciding when to checkpoint, with only violating writes
// buffered (the Write-back Buffer).
type ClankFactory struct{}

// Name implements Factory.
func (ClankFactory) Name() string { return "clank" }

// New implements Factory.
func (ClankFactory) New(cfg clank.Config) Scheme {
	return &Clank{k: clank.New(cfg)}
}

// Clank adapts the detector to the Scheme interface. The intermittent
// machine special-cases it: Detector exposes the concrete *clank.Clank so
// the machine's load/store fast path stays monomorphic (clank.Read/Write
// inline there; see the devirtualization note in machine.go). The
// interface methods below are the cold paths — commit drains, reboots —
// plus the generic access path used when the machine is forced off the
// fast path (conformance tests exercise it via Boxed).
type Clank struct {
	k *clank.Clank
}

// Detector returns the concrete detector for the machine's devirtualized
// fast path.
func (s *Clank) Detector() *clank.Clank { return s.k }

// Read implements Scheme.
func (s *Clank) Read(word, memWord, pc uint32) clank.Outcome {
	return s.k.Read(word, memWord, pc)
}

// Write implements Scheme.
func (s *Clank) Write(word, newWord, memWord, pc uint32) clank.Outcome {
	return s.k.Write(word, newWord, memWord, pc)
}

// Lookup implements Scheme.
func (s *Clank) Lookup(word uint32) (uint32, bool) { return s.k.Lookup(word) }

// NoteIgnoredAccess implements Scheme.
func (s *Clank) NoteIgnoredAccess() { s.k.AddAccesses(1) }

// SectionAccesses implements Scheme.
func (s *Clank) SectionAccesses() int { return s.k.SectionAccesses() }

// NextCommitIn implements Scheme: Clank never schedules commits — the
// detector vetoes accesses instead, and the machine's watchdogs cover
// liveness.
func (s *Clank) NextCommitIn(progress, sinceCommit uint64) (uint64, clank.Reason) {
	return Never, clank.ReasonNone
}

// DirtyEntries implements Scheme.
func (s *Clank) DirtyEntries(dst []clank.WBEntry) []clank.WBEntry {
	return s.k.DirtyEntries(dst)
}

// Committed implements Scheme: a full drain leaves the detector's section
// state dead weight.
func (s *Clank) Committed(progress uint64) { s.k.Reset() }

// Reboot implements Scheme: all buffers are volatile.
func (s *Clank) Reboot(progress uint64) { s.k.Reset() }

// Footprint implements Scheme.
func (s *Clank) Footprint() uint64 { return s.k.Footprint() }
