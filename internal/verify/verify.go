// Package verify is the reproduction of paper section 5: it proves, by
// exhaustive bounded enumeration, that the high-performance Clank
// implementation preserves idempotency. For every memory-access pattern up
// to a bound, every power-failure schedule, and a family of hardware
// configurations, an intermittent mini-machine mediated by Clank must
// produce exactly the read values and final non-volatile memory of an
// uninterrupted run, and the infinite-resource reference monitor must never
// observe a violating write that Clank failed to intercept.
//
// The paper used SystemVerilog assertions plus bounded model checking
// (EBMC) with a bound of 32 cycles; the Go analog enumerates the same kind
// of bounded space directly. Three layers deepen the bound beyond naive
// enumeration:
//
//   - symmetry canonicalization (symmetry.go) prunes patterns equivalent
//     under address permutation and value renaming
//   - a deterministic parallel sweep (sweep.go) shards the canonical space
//     over all cores with early abort and counterexample shrinking
//     (shrink.go)
//   - a full-stack differential mode (differential.go) lowers the same
//     abstract patterns into real Thumb-1 programs and replays them on the
//     armsim+intermittent pipeline
package verify

import (
	"fmt"

	"repro/internal/clank"
	"repro/internal/refmon"
)

// Op is one step of an abstract access pattern.
type Op struct {
	Write bool
	Word  uint32
	Val   uint32 // written value (writes only)
}

func (o Op) String() string {
	if o.Write {
		return fmt.Sprintf("W%d=%d", o.Word, o.Val)
	}
	return fmt.Sprintf("R%d", o.Word)
}

// Pattern is a bounded program: a straight-line sequence of loads/stores.
type Pattern []Op

func (p Pattern) String() string {
	s := "["
	for i, op := range p {
		if i > 0 {
			s += " "
		}
		s += op.String()
	}
	return s + "]"
}

// Words returns the smallest address-space size (in words) the pattern fits
// in.
func (p Pattern) Words() int {
	max := -1
	for _, op := range p {
		if int(op.Word) > max {
			max = int(op.Word)
		}
	}
	return max + 1
}

// Oracle runs the pattern continuously and returns the value each read
// observes plus the final memory (of size words).
func Oracle(p Pattern, words int) (reads []uint32, final []uint32) {
	mem := make([]uint32, words)
	for _, op := range p {
		if op.Write {
			mem[op.Word] = op.Val
		} else {
			reads = append(reads, mem[op.Word])
		}
	}
	return reads, mem
}

// Schedule yields power-failure positions: Fail(i) reports whether power is
// lost immediately after executing op index i of the current attempt
// stream (counting re-executions).
type Schedule interface {
	Fail(step int) bool
}

// FailAt fails exactly once, after the given global step count. Negative
// values never fail (continuous power).
type FailAt int

// Fail implements Schedule.
func (f FailAt) Fail(step int) bool { return step == int(f) }

func (f FailAt) String() string {
	if f < 0 {
		return "none"
	}
	return fmt.Sprintf("fail@%d", int(f))
}

// FailEvery fails after every Period steps (a crude repeated-failure
// model). Period 0 never fails. Degenerate periods are safe but may never
// terminate: with Period=1 every executed op is immediately followed by an
// outage, so a section can commit a checkpoint only when the op itself
// demands one — otherwise the run re-executes the same op forever and the
// harness bounds it out at maxRestarts with Terminated=false. Safety
// properties (no escaped violation, oracle-consistent reads) are still
// checked on every executed op of such runs.
type FailEvery struct{ Period int }

// Fail implements Schedule.
func (f FailEvery) Fail(step int) bool {
	return f.Period > 0 && step%f.Period == f.Period-1
}

func (f FailEvery) String() string { return fmt.Sprintf("every%d", f.Period) }

// Result is the outcome of one intermittent mini-run.
type Result struct {
	Reads      []uint32
	Final      []uint32
	Terminated bool
	Restarts   int
	Ckpts      int
}

// maxRestarts bounds liveness for repeated-failure schedules; safety
// properties are checked regardless.
const maxRestarts = 64

// Detector is the face of the idempotency-tracking hardware the harness
// drives. *clank.Clank implements it; meta-tests (prune soundness,
// counterexample shrinking) substitute deliberately broken wrappers to
// prove the harness catches the injected bugs.
type Detector interface {
	Read(word, memValue, pc uint32) clank.Outcome
	Write(word, value, memValue, pc uint32) clank.Outcome
	Reset()
	DirtyEntries(dst []clank.WBEntry) []clank.WBEntry
}

var _ Detector = (*clank.Clank)(nil)

// Checker runs patterns through the mini-machine with a pluggable detector
// factory. The zero value uses the real Clank hardware model.
type Checker struct {
	// NewDetector builds the detector under test for a configuration; nil
	// means clank.New.
	NewDetector func(cfg clank.Config) Detector
}

func (c Checker) detector(cfg clank.Config) Detector {
	if c.NewDetector != nil {
		return c.NewDetector(cfg)
	}
	return clank.New(cfg)
}

// RunIntermittent executes the pattern on the mini-machine: non-volatile
// memory plus Clank plus the checkpoint/restart protocol. It returns an
// error the moment any safety property is violated:
//
//   - the reference monitor sees a violating NV write Clank let through
//   - a read returns a value different from the continuous oracle
//
// The final memory check is the caller's (it needs the oracle).
func RunIntermittent(p Pattern, words int, cfg clank.Config, sched Schedule) (*Result, error) {
	return Checker{}.RunIntermittent(p, words, cfg, sched)
}

// RunIntermittent is the Checker-parameterized form of the top-level
// function.
func (c Checker) RunIntermittent(p Pattern, words int, cfg clank.Config, sched Schedule) (*Result, error) {
	oracleReads, _ := Oracle(p, words)
	return c.run(p, words, cfg, sched, oracleReads)
}

// run is the mini-machine loop. oracleReads is the precomputed continuous
// read stream (computed once per Check, not re-derived here).
func (c Checker) run(p Pattern, words int, cfg clank.Config, sched Schedule, oracleReads []uint32) (*Result, error) {
	mem := make([]uint32, words)
	k := c.detector(cfg)
	mon := refmon.New()
	res := &Result{}

	ckptIdx := 0 // committed resume point
	step := 0    // global executed-op counter (including re-execution)
	readsSeen := 0

	checkpoint := func(idx int) {
		// Two-phase commit (paper section 3.1.2): drain the Write-back
		// Buffer to the scratchpad, commit the checkpoint, apply the
		// values, commit again. At op granularity this is atomic.
		for _, e := range k.DirtyEntries(nil) {
			mem[e.Word] = e.Value
		}
		ckptIdx = idx
		k.Reset()
		mon.Reset()
		res.Ckpts++
	}

	i := 0
	for i < len(p) {
		op := p[i]
		var out clank.Outcome
		if op.Write {
			out = k.Write(op.Word, op.Val, mem[op.Word], 0)
		} else {
			out = k.Read(op.Word, mem[op.Word], 0)
		}
		if out.NeedCheckpoint {
			checkpoint(i)
			continue // re-feed the same op against fresh buffers
		}
		if op.Write {
			if out.Buffered {
				// Absorbed by the Write-back Buffer; NV untouched.
			} else {
				if v := mon.WriteNV(op.Word, op.Val, 0); v != nil {
					return res, fmt.Errorf("config %s: %w", cfg, v)
				}
				mem[op.Word] = op.Val
			}
		} else {
			var got uint32
			if out.FromWB {
				got = out.ReadValue
			} else {
				got = mem[op.Word]
				mon.ReadNV(op.Word, got)
			}
			if readsSeen < len(oracleReads) && got != oracleReads[readsSeen] {
				return res, fmt.Errorf("config %s: read %d of word %d = %d, oracle says %d",
					cfg, readsSeen, op.Word, got, oracleReads[readsSeen])
			}
			res.Reads = append(res.Reads, got)
			readsSeen++
		}
		fail := sched.Fail(step)
		step++
		i++
		if fail {
			// Power failure: all volatile state evaporates — Clank's
			// buffers (including un-flushed Write-back entries) and the
			// monitor's section state. Execution resumes at the last
			// committed checkpoint.
			res.Restarts++
			if res.Restarts > maxRestarts {
				return res, nil // non-terminating schedule; safety held
			}
			k.Reset()
			mon.Reset()
			i = ckptIdx
			// Re-executed reads will be re-checked against the oracle
			// from the resume point.
			readsSeen = countReads(p[:ckptIdx])
			res.Reads = res.Reads[:readsSeen]
		}
	}
	// Program completion commits the trailing section.
	checkpoint(len(p))
	res.Final = mem
	res.Terminated = true
	return res, nil
}

func countReads(p Pattern) int {
	n := 0
	for _, op := range p {
		if !op.Write {
			n++
		}
	}
	return n
}

// Check runs the pattern under the configuration and schedule and verifies
// all safety properties including final-memory equivalence.
func Check(p Pattern, words int, cfg clank.Config, sched Schedule) error {
	return Checker{}.Check(p, words, cfg, sched)
}

// Check is the Checker-parameterized form of the top-level function. The
// oracle is computed exactly once and shared between the in-run read checks
// and the final-memory comparison.
func (c Checker) Check(p Pattern, words int, cfg clank.Config, sched Schedule) error {
	oracleReads, oracleFinal := Oracle(p, words)
	res, err := c.run(p, words, cfg, sched, oracleReads)
	if err != nil {
		return err
	}
	if !res.Terminated {
		return nil // liveness bounded out; safety held
	}
	for w := range oracleFinal {
		if res.Final[w] != oracleFinal[w] {
			return fmt.Errorf("config %s: final mem[%d] = %d, oracle says %d (pattern %v)",
				cfg, w, res.Final[w], oracleFinal[w], p)
		}
	}
	if len(res.Reads) != len(oracleReads) {
		return fmt.Errorf("config %s: %d reads observed, oracle has %d", cfg, len(res.Reads), len(oracleReads))
	}
	return nil
}

// CheckFunc is the pluggable per-run verdict: nil means the pattern is
// safe under the configuration and schedule. Checker.Check is the standard
// one; Harness.Check swaps in the full-stack pipeline.
type CheckFunc func(p Pattern, words int, cfg clank.Config, sched Schedule) error

// EnumeratePatterns calls fn for every pattern of exactly length n over the
// given number of words and values drawn from 1..vals (writes only; 0 is
// the initial memory value). It is the naive bounded-model-checking state
// enumeration; EnumerateCanonical prunes it by symmetry.
func EnumeratePatterns(n, words, vals int, fn func(Pattern) error) error {
	return EnumerateCanonical(n, words, vals, IdentitySymmetry(words), fn)
}

// StandardConfigs is the configuration family the exhaustive harness
// checks: it covers every buffer type and the interesting optimization
// interactions at sizes small enough to overflow within the bound.
func StandardConfigs() []clank.Config {
	base := []clank.Config{
		{ReadFirst: 1},
		{ReadFirst: 2, WriteFirst: 1},
		{ReadFirst: 1, WriteBack: 1},
		{ReadFirst: 2, WriteFirst: 1, WriteBack: 2},
		{ReadFirst: 2, WriteFirst: 1, WriteBack: 1, AddrPrefix: 1, PrefixLowBits: 1},
		{ReadFirst: 4, WriteFirst: 2, WriteBack: 2, AddrPrefix: 2, PrefixLowBits: 1},
	}
	opts := []clank.Opt{
		0,
		clank.OptAll &^ clank.OptIgnoreText,
		clank.OptLatestCheckpoint,
		clank.OptIgnoreFalseWrites,
		clank.OptIgnoreFalseWrites | clank.OptRemoveDuplicates,
		clank.OptNoWFOverflow,
	}
	var out []clank.Config
	for _, b := range base {
		for _, o := range opts {
			c := b
			c.Opts = o
			out = append(out, c)
		}
	}
	// TEXT-segment handling (ignored reads, checkpoint-bracketed writes):
	// word 0 of the mini address space plays the text section, so the
	// self-modifying-code path is exhaustively covered too.
	for _, b := range base[:3] {
		c := b
		c.Opts = clank.OptAll
		c.TextStart, c.TextEnd = 0, 4
		out = append(out, c)
	}
	return out
}
