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
	return &Clank{clank.New(cfg)}
}

// Clank is the detector as a Scheme: Read, Write, Lookup, AddAccesses,
// SectionAccesses, DirtyEntries and Footprint are the detector's own
// promoted methods. The intermittent machine special-cases the concrete
// type and runs its load/store fast path on the embedded *clank.Clank, so
// clank.Read/Write inline there (see the devirtualization note in
// machine.go); Boxed hides the type to force the generic interface path.
type Clank struct {
	*clank.Clank
}

// NextCommitIn implements Scheme: Clank never schedules commits — the
// detector vetoes accesses instead, and the machine's watchdogs cover
// liveness.
func (s *Clank) NextCommitIn(progress, sinceCommit uint64) (uint64, clank.Reason) {
	return Never, clank.ReasonNone
}

// Committed implements Scheme: after a full drain or a reboot the
// detector's section state is dead weight (all its buffers are volatile).
func (s *Clank) Committed(progress uint64) { s.Reset() }
