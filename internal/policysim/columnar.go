package policysim

import (
	"reflect"
	"sync"

	"repro/internal/armsim"
)

// Columnar trace format. A design-space sweep replays one access log
// against thousands of configurations, so everything that is a property of
// the trace rather than of the configuration — the decoded columns, the
// output/TEXT classification of each address, the exempt-PC and
// volatile-range classification of each access — is computed once here and
// shared by every replay instead of being re-derived per configuration
// inside the hot loop.

// Per-access classification bits. The first five are trace-wide
// (BatchTrace.flags); the last two depend on a job's ExemptPCs set and
// MixedVolatility range and live in per-group columns (classGroup.flags,
// which embed the trace-wide bits too).
const (
	faWrite    uint8 = 1 << iota // store (vs load)
	faOutput                     // output commit: Addr >= armsim.MemSize
	faText                       // word inside the trace's TEXT window
	faNoWrite                    // memory load of a word no store in the trace touches
	faShadowed                   // load of a written word whose next access is a load of the same value
	faExempt                     // pc in the group's Program Idempotent set
	faVolatile                   // byte address in the group's volatile SRAM range
)

// faNoReport marks the loads the reference monitor need not see. refmon
// raises a violation only at WriteNV of a word the section read earlier,
// with a different value than the first read observed, so a ReadNV can
// matter only through a later WriteNV of its word in the same section:
//
//   - faNoWrite: no slot ever calls WriteNV on the word.
//   - faShadowed: the word's next access i2 is a load of the same value.
//     Within one monitor section the replay visits trace positions in
//     increasing order (every Reset — a commit or a reboot — precedes a
//     rewind), consuming whole skip runs only of reads that are
//     themselves faNoReport, so a later WriteNV of the word in the
//     section comes after i2 was replayed there. i2 reports the same
//     (word, value), or — if it is flagged too — the next load of the
//     chain does, and the last load before the store is never flagged.
//     A FromWB read reports nothing, but FromWB needs a dirty entry,
//     which only a store creates, so it holds for the whole chain or for
//     none of it.
//
// Either way the skipped ReadNV changes no verdict, error text or Result,
// and neither depends on a slot's configuration.
const faNoReport = faNoWrite | faShadowed

// BatchTrace is the struct-of-arrays form of a memory-access log: parallel
// columns replace the []armsim.Access row layout so the batched replay
// engine streams each column linearly, and the per-access classification
// (output, TEXT membership) is baked into a flags column once per trace.
type BatchTrace struct {
	addr  []uint32 // byte address (word-aligned for memory accesses)
	value []uint32
	prev  []uint32
	pc    []uint32
	cycle []uint64
	flags []uint8 // faWrite | faOutput | faText | faNoWrite | faShadowed

	base classGroup // the group of jobs with no ExemptPCs and no Mixed range

	total     uint64 // continuous-execution cycle count
	maxCycle  uint64 // max(total, largest cycle stamp): lockstep safety bound
	mono      int    // first index whose stamp regresses, or Len (monotonic)
	textStart uint32 // byte bounds baked into faText (clank.Config must match)
	textEnd   uint32

	mu     sync.Mutex
	groups []*classGroup
}

// classGroup is one (ExemptPCs set, MixedVolatility range) equivalence
// class of jobs: its flags column is the trace-wide column with faExempt
// and faVolatile filled in. Jobs sharing the classification (the common
// case: a sweep uses one exempt set) share the column.
type classGroup struct {
	exemptID uintptr // identity of the ExemptPCs map (0 = none)
	hasMixed bool
	vs, ve   uint32 // volatile byte range when hasMixed

	flags []uint8
	// skip holds the bypass-read run-length columns for flags (see
	// buildSkip), indexed by monitored (1) or not (0). Each is built on
	// first use, so a sweep whose jobs are all verified holds one.
	skip [2][]uint8
}

// buildSkip precomputes, for every access that is a bypass read — a load
// whose flags certify the verdict Outcome{} with no detector state change
// (TEXT or exempt, not output/volatile) and, when need is nonzero, that
// carries a bit of need — the length of the run of such reads starting
// there, capped at 255. The replay loop consumes a whole run in O(1): these runs are
// literal pools and flash lookup tables, and in table-driven kernels they
// cover a quarter of the trace. Zero means "not a bypass read". The
// column depends only on the flags column, so it is shared exactly as
// widely.
//
// A monitored slot passes need = faNoReport: it may skip a read only if
// the reference monitor need not see it either. The verdict of an exempt
// read may be FromWB rather than Outcome{}, but neither changes detector
// state, and only the report to the monitor tells them apart.
func buildSkip(flags []uint8, need uint8) []uint8 {
	skip := make([]uint8, len(flags))
	run := 0
	for i := len(flags) - 1; i >= 0; i-- {
		f := flags[i]
		if f&(faWrite|faOutput|faVolatile) == 0 && f&(faText|faExempt) != 0 && (need == 0 || f&need != 0) {
			if run < 255 {
				run++
			}
			skip[i] = uint8(run)
		} else {
			run = 0
		}
	}
	return skip
}

// NewBatchTrace captures a trace once into columnar form. textStart and
// textEnd are the byte bounds of the TEXT segment; every batched job that
// enables OptIgnoreText must carry the same bounds (NewBatch enforces
// this — the faText column is shared across the batch).
func NewBatchTrace(trace []armsim.Access, totalCycles uint64, textStart, textEnd uint32) *BatchTrace {
	tr := &BatchTrace{
		addr:      make([]uint32, len(trace)),
		value:     make([]uint32, len(trace)),
		prev:      make([]uint32, len(trace)),
		pc:        make([]uint32, len(trace)),
		cycle:     make([]uint64, len(trace)),
		flags:     make([]uint8, len(trace)),
		total:     totalCycles,
		textStart: textStart,
		textEnd:   textEnd,
	}
	// TEXT window in word addresses, exactly as the detector rounds it
	// (clank.Config.TextWords: end rounds up to the next word boundary).
	loW, hiW := textStart>>2, (textEnd+3)>>2
	for i, a := range trace {
		tr.addr[i] = a.Addr
		tr.value[i] = a.Value
		tr.prev[i] = a.Prev
		tr.pc[i] = a.PC
		tr.cycle[i] = a.Cycle
		var f uint8
		if a.Write {
			f |= faWrite
		}
		if a.Addr >= armsim.MemSize {
			f |= faOutput
		} else if w := a.Addr >> 2; w >= loW && w < hiW {
			f |= faText
		}
		tr.flags[i] = f
	}
	tr.setDerived()
	return tr
}

// setDerived computes what the decoded columns imply. It sets faNoWrite
// on every memory load whose word no store in the trace touches (a
// bitset over the MemSize/4 words; sub-word stores count for their whole
// word, as the detector and the monitor see them) and faShadowed on the
// other loads whose word's next access is a load of the same value (a
// backward pass that remembers each word's next load). It also records two
// facts about the cycle column that let the lockstep core drop its
// per-access checks: the largest stamp the replay can observe
// (slot.ckptLimit's wall-limit hoisting is derived from it) and the first
// index whose stamp regresses. Stamps are scanned rather than assumed
// monotonic so that a malformed trace still bails out safely — accesses
// from tr.mono on replay only on the general core, which models the
// unsigned-delta wraparound.
func (tr *BatchTrace) setDerived() {
	var written, nextLoad [armsim.MemSize / 4 / 64]uint64
	for i, f := range tr.flags {
		if f&(faWrite|faOutput) == faWrite {
			w := tr.addr[i] >> 2
			written[w/64] |= 1 << (w % 64)
		}
	}
	nextVal := make([]uint32, armsim.MemSize/4) // valid where nextLoad is set
	for i := len(tr.flags) - 1; i >= 0; i-- {
		f := tr.flags[i]
		if f&faOutput != 0 {
			continue
		}
		w := tr.addr[i] >> 2
		bit := uint64(1) << (w % 64)
		if f&faWrite != 0 {
			nextLoad[w/64] &^= bit
			continue
		}
		if written[w/64]&bit == 0 {
			tr.flags[i] = f | faNoWrite
		} else if nextLoad[w/64]&bit != 0 && nextVal[w] == tr.value[i] {
			tr.flags[i] = f | faShadowed
		}
		nextLoad[w/64] |= bit
		nextVal[w] = tr.value[i]
	}
	tr.base.flags = tr.flags
	m := tr.total
	tr.mono = len(tr.cycle)
	for i, c := range tr.cycle {
		if c > m {
			m = c
		}
		if i > 0 && c < tr.cycle[i-1] && tr.mono == len(tr.cycle) {
			tr.mono = i
		}
	}
	tr.maxCycle = m
}

// Len returns the number of accesses.
func (tr *BatchTrace) Len() int { return len(tr.addr) }

func exemptIdentity(m map[uint32]bool) uintptr {
	if m == nil {
		return 0
	}
	return reflect.ValueOf(m).Pointer()
}

// classFor returns the class group for the given exempt set and volatile
// range, building and caching its flags column on first use. Groups are
// keyed by map identity: two jobs share a column only when they share the
// ExemptPCs map object, which every sweep constructed from one profiler
// run does.
func (tr *BatchTrace) classFor(exempt map[uint32]bool, mixed *MixedVolatility) *classGroup {
	id := exemptIdentity(exempt)
	if id == 0 && mixed == nil {
		return &tr.base
	}
	var vs, ve uint32
	if mixed != nil {
		vs, ve = mixed.VolatileStart, mixed.VolatileEnd
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, g := range tr.groups {
		if g.exemptID == id && g.hasMixed == (mixed != nil) && g.vs == vs && g.ve == ve {
			return g
		}
	}
	g := &classGroup{exemptID: id, hasMixed: mixed != nil, vs: vs, ve: ve}
	g.flags = make([]uint8, len(tr.flags))
	copy(g.flags, tr.flags)
	for i, f := range g.flags {
		if exempt != nil && exempt[tr.pc[i]] {
			f |= faExempt
		}
		// The replay cores test the volatile range only after the output
		// branch, so output records never classify volatile.
		if mixed != nil && f&faOutput == 0 && tr.addr[i] >= vs && tr.addr[i] < ve {
			f |= faVolatile
		}
		g.flags[i] = f
	}
	tr.groups = append(tr.groups, g)
	return g
}

// skipFor returns g's bypass-read run-length column for monitored or
// unmonitored slots, building and caching it on first use.
func (tr *BatchTrace) skipFor(g *classGroup, monitored bool) []uint8 {
	m, need := 0, uint8(0)
	if monitored {
		m, need = 1, faNoReport
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if g.skip[m] == nil {
		g.skip[m] = buildSkip(g.flags, need)
	}
	return g.skip[m]
}
