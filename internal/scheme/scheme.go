// Package scheme defines the runtime-scheme seam of the intermittent
// machine: the contract between the machine's bus/run loop and whatever
// policy decides which accesses are dangerous, when execution must commit,
// and what state a commit persists. The eh-sim simulator structures every
// intermittent approach as an eh_scheme plug-in; this package is that seam
// for our machine, with Clank's idempotency-violation detector as the
// first backend and two related-work peers beside it:
//
//   - clank: the paper's detector (Read-first/Write-first/Write-back/
//     Address-Prefix CAMs). Checkpoints when tracking fails; only the
//     Write-back Buffer's violating writes are buffered.
//   - alpaca: Alpaca-style task-based execution. Every store is privatized
//     into a task buffer, so re-executing a torn task is idempotent by
//     construction; the buffer drains at statically-placed task boundaries
//     (fixed useful-progress lengths from the last commit) instead of
//     dynamically-detected checkpoints.
//   - dica: DiCA-style differential checkpointing. Same privatizing
//     buffer, but commits fire on a wall-clock interval since the last
//     commit, and each commit persists only the words dirtied since the
//     previous one.
//
// Alpaca and DiCA are one privatizing type that differs only in its commit
// trigger, which their factories set. Factory.Name is the registry name.
//
// All three run under one machine, one CRC-sealed two-phase commit
// program, and one set of harnesses (crash sweep, output equivalence,
// fleet), which is what makes cross-scheme numbers comparable.
package scheme

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/accfilter"
	"repro/internal/clank"
)

// Never is the NextCommitIn distance of a scheme that never forces
// commits on its own (Clank commits only when the detector vetoes).
const Never = ^uint64(0)

// Scheme is one intermittent-execution policy attached to the machine's
// memory path. The machine consults it on every tracked data access (Read,
// Write, Lookup, AddAccesses), at every run-loop iteration (NextCommitIn),
// and around the shared commit program and reboots (DirtyEntries,
// Committed).
//
// The crash sweep imposes one contract on every implementation: all
// volatile scheme state must be reconstructible from the committed slot
// record alone. Committed receives the committed useful-progress cycle;
// any internal base the scheme keeps (task boundaries, intervals) must be
// a pure function of it, so that a reboot restoring an old checkpoint
// re-derives exactly the schedule the original execution saw.
type Scheme interface {
	// Read classifies a load of word (current memory value memWord) by the
	// instruction at pc. FromWB outcomes serve the access from scheme-
	// buffered state; NeedCheckpoint vetoes the instruction.
	Read(word, memWord, pc uint32) clank.Outcome

	// Write classifies a store of newWord to word (current memory value
	// memWord). Buffered outcomes absorb the store into scheme state;
	// NeedCheckpoint vetoes the instruction; a zero Outcome passes the
	// store through to non-volatile memory.
	Write(word, newWord, memWord, pc uint32) clank.Outcome

	// Lookup returns the scheme's buffered view of a word, if it shadows
	// memory (sub-word stores merge against it).
	Lookup(word uint32) (uint32, bool)

	// AddAccesses counts n accesses the machine classified without
	// consulting the scheme (TEXT-window reads), keeping the section
	// access count — and with it output bracketing — exact.
	AddAccesses(n int)

	// SectionAccesses reports accesses since the last commit or reboot;
	// the machine brackets outputs whenever it is non-zero.
	SectionAccesses() int

	// NextCommitIn is the will-checkpoint predicate: given the committed-
	// progress clock (useful cycles) and the wall cycles since the last
	// commit, it returns how many cycles may execute before the scheme
	// forces a commit, plus the reason that commit will carry. 0 means
	// commit now; Never means the scheme only commits reactively.
	NextCommitIn(progress, sinceCommit uint64) (uint64, clank.Reason)

	// DirtyEntries appends the buffered words a commit must persist, in
	// ascending address order (the commit program journals then applies
	// them).
	DirtyEntries(dst []clank.WBEntry) []clank.WBEntry

	// Committed notifies the scheme that execution stands at a commit
	// point at the given useful-progress cycle: a commit drained fully
	// (buffered state is now persistent), or power was lost and execution
	// resumed from the checkpoint taken there (buffered state died with
	// the power). Either way the scheme discards its section state and
	// progress-relative schedules re-base.
	Committed(progress uint64)

	// Footprint estimates the scheme's resident bytes per device.
	Footprint() uint64
}

// Ported is the optional interface of a scheme whose certified accesses
// the CPU's fused executor may complete without a Bus call
// (armsim.CPU.SetAccessPort). Clank's port carries the detector's filter
// tag arrays as well as its Write-back slots; the privatizing scheme's
// carries only its buffer, so it certifies buffered words alone. The
// returned port aliases the scheme's own state and stays valid for the
// scheme's lifetime. Boxed hides this interface, keeping every access on
// the Bus.
type Ported interface {
	Port() accfilter.Port
}

// Factory builds Scheme instances for a finalized configuration. The
// machine resolves TEXT bounds from the image before construction, so
// schemes cannot be built from a bare name alone.
type Factory interface {
	// Name returns the registry name this factory builds.
	Name() string
	// New builds a fresh scheme for cfg (TextStart/TextEnd finalized).
	New(cfg clank.Config) Scheme
}

// registry maps names to default-parameter factories.
var registry = map[string]Factory{
	"clank":  ClankFactory{},
	"alpaca": AlpacaFactory{},
	"dica":   DiCAFactory{},
}

// Names returns the registered scheme names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Boxed wraps a factory so the built scheme exposes nothing beyond the
// Scheme interface — notably hiding the concrete *Clank and Ported — which
// forces the machine onto its generic interface path with every access on
// the Bus. Conformance tests use it as the reference leg that the
// devirtualized fast path and the access port are checked against.
func Boxed(f Factory) Factory { return boxedFactory{f} }

type boxedFactory struct{ inner Factory }

func (b boxedFactory) Name() string                { return b.inner.Name() }
func (b boxedFactory) New(cfg clank.Config) Scheme { return boxed{b.inner.New(cfg)} }

// boxed promotes only the interface methods of the wrapped scheme.
type boxed struct{ Scheme }

// Parse resolves a CLI -scheme spec: a bare registered name ("alpaca") or
// name:N with a scheme-specific parameter ("alpaca:2000" sets the task
// length in cycles, "dica:4000" the commit interval; clank takes none).
func Parse(spec string) (Factory, error) {
	name, param, has := strings.Cut(spec, ":")
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("scheme: unknown scheme %q (have %s)", name, strings.Join(Names(), ", "))
	}
	if !has {
		return f, nil
	}
	n, err := strconv.ParseUint(param, 10, 64)
	if err != nil || n == 0 {
		return nil, fmt.Errorf("scheme: bad parameter %q in %q (want a positive cycle count)", param, spec)
	}
	switch name {
	case "alpaca":
		return AlpacaFactory{TaskLen: n}, nil
	case "dica":
		return DiCAFactory{Interval: n}, nil
	default:
		return nil, fmt.Errorf("scheme: %s takes no parameter", name)
	}
}
