// Package clank models Clank's idempotency-tracking hardware (paper
// section 3): the Read-first, Write-first, Write-back, and Address Prefix
// buffers, the detection/management logic, and the five policy
// optimizations of section 3.2. The model is cycle-agnostic: it classifies
// each word-granularity memory access and tells its driver (the
// intermittent machine or the trace-driven policy simulator) when a
// checkpoint must be taken and when a write is absorbed by the Write-back
// Buffer instead of reaching non-volatile memory.
package clank

import "fmt"

// Opt is a bitmask of the policy optimizations from paper section 3.2.
type Opt uint8

// Policy optimizations.
const (
	// OptIgnoreFalseWrites ignores writes that do not change the stored
	// value, using Write-back Buffer capacity to remember read values
	// (section 3.2.1).
	OptIgnoreFalseWrites Opt = 1 << iota
	// OptRemoveDuplicates clears an address from the Read-first Buffer
	// once its violating write is buffered, freeing RF capacity
	// (section 3.2.2).
	OptRemoveDuplicates
	// OptNoWFOverflow ignores Write-first Buffer overflows instead of
	// checkpointing; the cost is possible false violation detections
	// later (section 3.2.3).
	OptNoWFOverflow
	// OptIgnoreText ignores reads from the TEXT segment and checkpoints
	// on any write into it (section 3.2.4).
	OptIgnoreText
	// OptLatestCheckpoint delays the checkpoint after a buffer fill until
	// just before the next write (section 3.2.5).
	OptLatestCheckpoint

	// OptAll enables every optimization.
	OptAll = OptIgnoreFalseWrites | OptRemoveDuplicates | OptNoWFOverflow |
		OptIgnoreText | OptLatestCheckpoint

	// NumOpts is the number of individual optimization flags (the paper's
	// 32 policy settings are the 2^5 subsets).
	NumOpts = 5
)

func (o Opt) String() string {
	if o == 0 {
		return "none"
	}
	s := ""
	add := func(f Opt, name string) {
		if o&f != 0 {
			if s != "" {
				s += "+"
			}
			s += name
		}
	}
	add(OptIgnoreFalseWrites, "falsewrites")
	add(OptRemoveDuplicates, "dedup")
	add(OptNoWFOverflow, "nowf")
	add(OptIgnoreText, "text")
	add(OptLatestCheckpoint, "latest")
	return s
}

// ParseOpts parses a command-line optimization set: exactly "all"
// (OptAll) or "none" (no optimizations). Any other spelling is an error, so
// a typo cannot silently run without optimizations.
func ParseOpts(s string) (Opt, error) {
	switch s {
	case "all":
		return OptAll, nil
	case "none":
		return 0, nil
	}
	return 0, fmt.Errorf("clank: unknown optimization set %q (want all or none)", s)
}

// Unlimited marks a buffer as effectively infinite (used for the
// checkpoint-vs-re-execution study, paper section 7.4).
const Unlimited = 1 << 30

// Config describes a Clank hardware configuration. The paper's shorthand
// "R,W,WB,AP" gives the four entry counts.
type Config struct {
	ReadFirst  int // Read-first Buffer entries; at least 1 is required
	WriteFirst int // Write-first Buffer entries (0 = absent)
	WriteBack  int // Write-back Buffer entries (0 = absent)
	AddrPrefix int // Address Prefix Buffer entries (0 = absent)

	// PrefixLowBits is the number of low word-address bits kept in each
	// buffer entry when the Address Prefix Buffer is present (paper: 6).
	PrefixLowBits int

	Opts Opt

	// ExemptPCs holds instruction addresses the compiler marked Program
	// Idempotent (section 4.3); the hardware ignores their accesses.
	ExemptPCs map[uint32]bool

	// TextStart/TextEnd bound the TEXT segment in bytes, for
	// OptIgnoreText.
	TextStart, TextEnd uint32

	// DisableFilter turns off the access-filter front end (on by
	// default). The filter is semantics-free — disabling it only costs
	// speed — and differential tests toggle it to cross-check the
	// filtered and unfiltered paths against each other.
	DisableFilter bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ReadFirst < 1 {
		return fmt.Errorf("clank: Read-first Buffer requires at least one entry")
	}
	if c.WriteFirst < 0 || c.WriteBack < 0 || c.AddrPrefix < 0 {
		return fmt.Errorf("clank: negative buffer size in %v", c)
	}
	if c.AddrPrefix > 0 && (c.PrefixLowBits < 1 || c.PrefixLowBits > 29) {
		return fmt.Errorf("clank: PrefixLowBits %d out of range", c.PrefixLowBits)
	}
	return nil
}

// String renders the paper's "R,W,WB,AP" shorthand.
func (c Config) String() string {
	n := func(v int) string {
		if v >= Unlimited {
			return "inf"
		}
		return fmt.Sprintf("%d", v)
	}
	return fmt.Sprintf("%s,%s,%s,%s", n(c.ReadFirst), n(c.WriteFirst), n(c.WriteBack), n(c.AddrPrefix))
}

// TextWords returns the TEXT segment bounds as word addresses — lo
// inclusive, hi exclusive — and whether TEXT-segment special-casing is
// active (OptIgnoreText). TextEnd rounds up, so a word straddling an
// unaligned TextEnd is TEXT. The detector, every runtime scheme and the
// intermittent machine's TEXT fast paths derive their window from this one
// formula, so they classify alike and shared decode images see identical
// bounds whichever scheme a device runs.
func (c Config) TextWords() (lo, hi uint32, active bool) {
	return c.TextStart >> 2, (c.TextEnd + 3) >> 2, c.Opts&OptIgnoreText != 0
}

// Word-address width used in the paper's hardware accounting: 32-bit byte
// addresses tracked at word granularity.
const wordAddrBits = 30

// BufferBits returns the total storage the configuration requires, using
// the paper's accounting (section 3.1.3): without an Address Prefix Buffer
// every entry stores a full 30-bit word address; with one, entries store
// PrefixLowBits low bits plus a log2(AP)-bit tag, and each APB entry stores
// the remaining high bits. Write-back entries add 32 value bits.
func (c Config) BufferBits() int {
	entry := wordAddrBits
	apb := 0
	if c.AddrPrefix > 0 {
		tag := ceilLog2(c.AddrPrefix)
		entry = c.PrefixLowBits + tag
		apb = c.AddrPrefix * (wordAddrBits - c.PrefixLowBits)
	}
	return c.ReadFirst*entry + c.WriteFirst*entry + c.WriteBack*(entry+32) + apb
}

func ceilLog2(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	return n
}

// Reason explains why Clank demanded a checkpoint.
type Reason int

// Checkpoint reasons.
const (
	ReasonNone Reason = iota
	ReasonRFOverflow
	ReasonWFOverflow
	ReasonAPOverflow
	ReasonWBOverflow
	ReasonViolation    // idempotency violation with no Write-back Buffer
	ReasonTextWrite    // write into the TEXT segment under OptIgnoreText
	ReasonWriteInFill  // first write after a fill under OptLatestCheckpoint
	ReasonOutput       // output-commit bracket
	ReasonPerfWatchdog // Performance Watchdog expiry
	ReasonProgWatchdog // Progress Watchdog expiry

	// Reasons raised by the non-Clank runtime schemes
	// (internal/scheme); the Clank detector never emits them.

	ReasonTaskBoundary   // Alpaca-style task boundary reached
	ReasonCommitInterval // DiCA-style differential-checkpoint interval expiry

	// NumReasons is the number of Reason values; fixed-size per-reason
	// counters (ReasonCounts) are indexed by Reason.
	NumReasons = int(ReasonCommitInterval) + 1
)

var reasonNames = [...]string{
	"none", "rf-overflow", "wf-overflow", "ap-overflow", "wb-overflow",
	"violation", "text-write", "write-in-fill", "output", "perf-watchdog",
	"progress-watchdog", "task-boundary", "commit-interval",
}

func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "unknown"
}
