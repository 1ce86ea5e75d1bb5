package policysim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clank"
	"repro/internal/power"
	"repro/internal/refmon"
)

// Batched replay: one pass over the columnar trace drives a whole batch of
// configurations. Detector state for the batch lives in a flat
// clank.NewArena slice indexed by config slot, and everything that is a
// property of the trace (decode, address classification) is read once per
// access and shared by every slot.
//
// There is one general replay core plus one fast path:
//
//   - The general core (colSim, colsim.go) replays one job at a time,
//     config-major, driving the full run-time state machine (clank.Ledger:
//     power budget, watchdogs, reboots).
//     Power-cycled jobs need it because each job's reboot schedule
//     desynchronizes its trace position from every other's; they still
//     share the decoded columns, the classification, the arena, and the
//     scratch buffers. Simulate runs every job on it.
//
//   - Continuous-power jobs take the lockstep fast path, access-major:
//     the outer loop walks the trace once and an inner loop steps every
//     live slot. Under continuous power the general core never reboots,
//     so the committed NV state always equals the continuous trace's own
//     values (the shadow store is the identity) and a checkpoint's cost is
//     the closed-form clank.CommitCost — no shadow array, no step walk, no
//     power arithmetic per access. A slot that leaves that regime bails
//     to the general core.
//
// The fast path is differentially tested to be byte-identical to the
// general core through Simulate (TestBatchMatchesScalar*).

// Job is one design-space point: a hardware configuration plus simulation
// options. For deterministic sweeps each job's Opts.Supply must be a
// private power source instance (sharing one stateful Supply across jobs
// would make results depend on replay order).
type Job struct {
	Config clank.Config
	Opts   Options
}

// validateJob checks a job against the trace it will replay.
func validateJob(tr *BatchTrace, j Job) error {
	if err := j.Config.Validate(); err != nil {
		return err
	}
	if j.Config.Opts&clank.OptIgnoreText != 0 &&
		(j.Config.TextStart != tr.textStart || j.Config.TextEnd != tr.textEnd) {
		return fmt.Errorf("policysim: config TEXT bounds [%#x,%#x) do not match the trace's [%#x,%#x)",
			j.Config.TextStart, j.Config.TextEnd, tr.textStart, tr.textEnd)
	}
	return nil
}

// slot is one job's replay state inside a batch.
type slot struct {
	k     *clank.Clank
	mon   *refmon.Monitor
	o     Options // normalized
	class []uint8 // classification column (trace-wide bits + group bits)
	skip  []uint8 // bypass-read run lengths; nil unless textOn (the
	// column counts TEXT reads as skippable, so a slot that tracks TEXT
	// must not use it — it falls back to the per-access bypass test,
	// which its textMask correctly narrows to exempt-only)
	textOn   bool   // OptIgnoreText active: faText bits apply
	textMask uint8  // faText when textOn, else 0 (hoists the && per access)
	wdt      uint64 // o.PerfWatchdog, hoisted

	// ckptLimit hoists the general core's loop-top wall checks out of the
	// per-access path. Under continuous power the wall at any point is
	// (some cycle stamp) + res.CkptCycles, and the stamp never exceeds the
	// trace's maxCycle — so as long as CkptCycles stays at or below
	// ckptLimit, neither the MaxWallCycles check nor the continuousGuard
	// can trip anywhere in the trace, and the checks only need to run
	// where CkptCycles changes: at commits and undo-journal charges. A
	// slot that exceeds the limit (or starts beyond it: neverSafe) bails
	// to the general core, which replays the job — including its exact
	// failure point and error — from scratch.
	ckptLimit uint64
	neverSafe bool

	// Lockstep (continuous-power) replay state. Wall cycles so far are
	// always prevT + res.CkptCycles: useful cycles accrue with the shared
	// trace cursor and restarts never happen.
	ckptT         uint64 // trace time of the last checkpoint
	refeedGate    int    // group start of the last re-fed instruction (-1 = none)
	minStackWrite uint32
	undoEntries   int

	res          Result
	err          error
	done         bool
	needsPowered bool // lockstep bailed out; re-run on the general core
}

// Batch replays one trace against a fixed set of jobs. Build it once with
// NewBatch and call Run; a Batch is reusable (the CI alloc guard holds a
// steady-state Run to zero allocations) but not concurrency-safe, and
// re-running jobs with stateful power supplies continues their sequence,
// exactly as calling Simulate twice with one Supply would.
type Batch struct {
	tr   *BatchTrace
	jobs []Job // options normalized
	ks   []clank.Clank
	sl   []slot

	lockstep []*slot // continuous-power jobs, in job order
	powered  []int   // power-cycled job indices, for the general core
	live     []*slot // runLockstep's not-yet-done scratch list

	dirtyScratch []clank.WBEntry
	stepScratch  []clank.CommitStep
	cs           colSim
}

// NewBatch validates the jobs and allocates every per-batch structure:
// the detector arena, the classification columns, and the monitors.
func NewBatch(tr *BatchTrace, jobs []Job) (*Batch, error) {
	cfgs := make([]clank.Config, len(jobs))
	njobs := make([]Job, len(jobs))
	for i, j := range jobs {
		if err := validateJob(tr, j); err != nil {
			return nil, fmt.Errorf("policysim: job %d: %w", i, err)
		}
		njobs[i] = Job{Config: j.Config, Opts: j.Opts.normalized(tr.total)}
		cfgs[i] = j.Config
	}
	ks, err := clank.NewArena(cfgs)
	if err != nil {
		return nil, err
	}
	b := &Batch{tr: tr, jobs: njobs, ks: ks, sl: make([]slot, len(jobs))}
	for i := range b.sl {
		s := &b.sl[i]
		o := njobs[i].Opts
		s.k = &ks[i]
		s.o = o
		var skip []uint8
		s.class, skip = tr.classFor(njobs[i].Config.ExemptPCs, o.Mixed)
		_, _, s.textOn = s.k.TextWords()
		if s.textOn {
			s.textMask = faText
			s.skip = skip
		}
		s.wdt = o.PerfWatchdog
		s.refeedGate = -1
		if o.Verify && !o.UndoLog {
			// The reference monitor models the redo discipline (writes
			// that reach NV must not break idempotence); the undo journal
			// restores old values on rollback instead, which the monitor
			// cannot express. The undo mode is an overhead model only.
			s.mon = refmon.New()
		}
		// Checkpoint-cycle budget within which the lockstep core is exact
		// (see the ckptLimit field comment); min() keeps the sums
		// overflow-free.
		if o.MaxWallCycles < tr.maxCycle || continuousGuard-1 < tr.maxCycle {
			s.neverSafe = true
		} else {
			s.ckptLimit = min(o.MaxWallCycles-tr.maxCycle, continuousGuard-1-tr.maxCycle)
		}
		if _, always := o.Supply.(power.Always); always {
			b.lockstep = append(b.lockstep, s)
		} else {
			b.powered = append(b.powered, i)
		}
	}
	return b, nil
}

// Run replays the trace against every job, writing job i's Result into
// dst[i] and (when errs is non-nil) its error into errs[i]. Jobs fail
// independently; the returned error is the lowest-index failure.
func (b *Batch) Run(dst []Result, errs []error) error {
	if len(dst) != len(b.jobs) {
		return fmt.Errorf("policysim: Run dst holds %d results for %d jobs", len(dst), len(b.jobs))
	}
	if errs != nil && len(errs) != len(b.jobs) {
		return fmt.Errorf("policysim: Run errs holds %d slots for %d jobs", len(errs), len(b.jobs))
	}
	for i := range b.sl {
		b.resetSlot(&b.sl[i])
	}
	b.runLockstep()
	for _, s := range b.lockstep {
		if s.needsPowered {
			b.resetSlot(s)
			s.err = b.runPowered(s)
		}
	}
	for _, ji := range b.powered {
		s := &b.sl[ji]
		s.err = b.runPowered(s)
	}
	var first error
	for i := range b.sl {
		s := &b.sl[i]
		dst[i] = s.res
		if errs != nil {
			errs[i] = s.err
		}
		if s.err != nil && first == nil {
			first = fmt.Errorf("policysim: job %d (%s): %w", i, b.jobs[i].Config, s.err)
		}
	}
	return first
}

func (b *Batch) resetSlot(s *slot) {
	s.k.Reset()
	if s.mon != nil {
		s.mon.Reset()
	}
	s.ckptT = 0
	s.undoEntries = 0
	s.minStackWrite = 0
	if s.o.Mixed != nil {
		s.minStackWrite = s.o.Mixed.StackTop
	}
	s.res = Result{Counters: clank.Counters{UsefulCycles: b.tr.total}}
	s.err = nil
	s.done = false
	s.needsPowered = false
}

// SimulateBatch replays the trace against the jobs in one batch and
// returns their Results; the error is the lowest-index job failure.
func SimulateBatch(tr *BatchTrace, jobs []Job) ([]Result, error) {
	b, err := NewBatch(tr, jobs)
	if err != nil {
		return nil, err
	}
	res := make([]Result, len(jobs))
	err = b.Run(res, nil)
	return res, err
}

// continuousGuard bounds lockstep wall cycles. Beyond it the general
// core's 1<<62-cycle continuous power budget could deplete (it reboots
// and draws a fresh budget), a path the lockstep core does not model;
// jobs that approach it re-run from scratch on the general core, which
// models it exactly.
const continuousGuard = uint64(1) << 61

// spanChunk is the lockstep span length: big enough to amortize the
// per-slot setup of runSpan, small enough that one span's columns
// (addr/value/prev/class ≈ 13 bytes per access on the fast path) stay
// cache-resident while every slot replays them.
const spanChunk = 4096

// runLockstep replays every continuous-power slot over the trace in
// cache-sized spans: the outer loop walks span boundaries, the inner
// loop gives each live slot the whole span with its state held in
// locals. Slots under continuous power never interact, so span order is
// pure scheduling — results are identical to access-major stepping.
// Accesses from tr.mono on (a non-monotonic stamp, only in malformed
// hand-built traces) are not replayed here: the general core's unsigned
// delta wraps into its reboot machinery, which the lockstep core does not
// model.
func (b *Batch) runLockstep() {
	if len(b.lockstep) == 0 {
		return
	}
	live := b.live[:0]
	for _, s := range b.lockstep {
		if s.neverSafe {
			s.needsPowered = true
			s.done = true
			continue
		}
		live = append(live, s)
	}
	tr := b.tr
	n := tr.mono
	for lo := 0; lo < n && len(live) > 0; lo += spanChunk {
		hi := min(lo+spanChunk, n)
		for si := 0; si < len(live); {
			if live[si].runSpan(b, lo, hi) {
				si++
			} else {
				live[si] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
	}
	b.live = live[:0]
	if n < len(tr.addr) {
		for _, s := range b.lockstep {
			if !s.done {
				s.needsPowered = true
				s.done = true
			}
		}
		return
	}
	var prevT uint64
	if n > 0 {
		prevT = tr.cycle[n-1]
	}
	for _, s := range b.lockstep {
		if !s.done {
			s.tail(b, prevT)
		}
	}
}

// runSpan replays accesses [lo, hi) for one slot. Returns false once the
// slot is done.
//
// An armed Performance Watchdog is checked after every access, quantized
// to access boundaries (the Progress Watchdog never arms under continuous
// power: it requires a barren boot). The cycle stamps are monotonic here,
// so the first access at which the watchdog can fire is found by binary
// search, and the span is replayed in segments that end there. A commit
// inside a segment only moves the deadline later, so the check at a
// segment's last access is exact: it fires there or nowhere before.
func (s *slot) runSpan(b *Batch, lo, hi int) bool {
	tr := b.tr
	for lo < hi {
		end := hi
		if s.wdt != 0 {
			end = s.watchdogEnd(tr, lo, hi)
		}
		if s.o.UndoLog {
			for i := lo; i < end; i++ {
				if !s.stepRare(b, i, s.class[i], tr.cycle[i]) {
					return false
				}
			}
		} else if !s.probeSpan(b, lo, end) {
			return false
		}
		if s.wdt != 0 {
			if cyc := tr.cycle[end-1]; cyc-s.ckptT >= s.wdt {
				s.commit(clank.ReasonPerfWatchdog, cyc)
				if s.done {
					return false
				}
			}
		}
		lo = end
	}
	return true
}

// watchdogEnd returns one past the first access in [lo, hi) at which the
// Performance Watchdog is due (cycle - ckptT >= wdt), or hi if there is
// none.
func (s *slot) watchdogEnd(tr *BatchTrace, lo, hi int) int {
	due := sort.Search(hi-lo, func(k int) bool { return tr.cycle[lo+k]-s.ckptT >= s.wdt })
	return min(lo+due+1, hi)
}

// probeSpan is the lockstep core's one filter-probe loop: it replays
// accesses [lo, hi) for every slot without an undo journal, monitored or
// not, watchdogged or not (runSpan ends a segment where a watchdog is
// due). It touches only the addr/value/class columns (pc when a monitor
// is attached) and the inlined detector verdict, and reads the cycle
// column only when a checkpoint actually commits. Everything rarer
// (output commits, volatile skips, misses) drops into stepRare,
// settleAccess or refeedInsn, and the general core's loop-top wall checks
// are hoisted into slot.ckptLimit so they cost nothing per access.
//
// The monitor is the oracle, so it sees every access whose verdict
// reaches NV memory on its own terms, filter hits included: exactly what
// settleAccess would report for the same verdict. Writes certified
// Outcome{} go to WriteNV, reads certified Outcome{} to ReadNV, and
// Write-back hits (Buffered / FromWB) report nothing. The probes that
// cannot tell Outcome{} from FromWB — exempt reads and untracked-mode
// reads — certify only without a monitor; with one, those reads take the
// full ReadPre. The skip run-length column likewise applies only without
// a monitor, which must see each TEXT read. Returns false once the slot
// is done.
func (s *slot) probeSpan(b *Batch, lo, hi int) bool {
	tr := b.tr
	k := s.k
	mon := s.mon
	textMask := s.textMask
	// Read flags that certify the verdict Outcome{} with no state change:
	// TEXT reads under OptIgnoreText (TEXT words are never buffer-resident:
	// the TEXT check precedes every insert) and, without a monitor, exempt
	// reads (the read tree resolves them before any insert, and the
	// Write-back branches above them are read-only — but they may be
	// FromWB, which only a monitor cares about).
	rdBypass := textMask
	if mon == nil {
		rdBypass |= faExempt
	}
	wfZero := k.Config().WriteFirst == 0
	// The access count of probe-resolved accesses is settled in a local
	// (flushed before anything that can observe SectionAccesses — slow
	// calls, rare steps, span end). Iterating sliced windows (not
	// class[i]/tr.addr[i] on the full columns) lets the compiler drop the
	// per-access bounds checks.
	acc := 0
	addrs := tr.addr[lo:hi]
	vals := tr.value[lo:hi]
	cls := s.class[lo:hi]
	var sk []uint8
	if s.skip != nil && mon == nil {
		sk = s.skip[lo:hi]
	}
	for j := 0; j < len(addrs); j++ {
		f := cls[j]
		if f&(faOutput|faVolatile) != 0 {
			i := lo + j
			k.AddAccesses(acc)
			acc = 0
			if !s.stepRare(b, i, f, tr.cycle[i]) {
				return false
			}
			continue
		}
		word := addrs[j] >> 2
		if f&faWrite != 0 {
			nv := k.FilterHitWrite(word)
			if !nv {
				if k.BufferedWrite(word, vals[j]) {
					acc++
					continue
				}
				// An authoritative index miss resolves two more write
				// classes without a detector call: an exempt write of a
				// word in no buffer is Outcome{} (the exempt branch
				// precedes every insert), and under WriteFirst == 0 a
				// plain write of an untracked word in tracked mode is the
				// passthrough Outcome{} (the slow path would only refresh
				// the perf-only filter cache).
				nv = (f&faExempt != 0 || wfZero && f&textMask == 0 && !k.Untracked()) && k.IdxMiss(word)
			}
			if nv {
				acc++
				if mon != nil {
					if v := mon.WriteNV(word, vals[j], tr.pc[lo+j]); v != nil {
						s.fail(lo+j, tr.cycle[lo+j], v)
						return false
					}
				}
				continue
			}
		} else if f&rdBypass != 0 {
			acc++
			if mon != nil {
				mon.ReadNV(word, vals[j])
			} else if sk != nil {
				// The whole bypass-read run is consumed in O(1).
				n := min(int(sk[j]), len(addrs)-j)
				acc += n - 1
				j += n - 1
			}
			continue
		} else if k.FilterHitRead(word) {
			acc++
			if mon != nil {
				mon.ReadNV(word, vals[j])
			}
			continue
		} else if k.BufferedRead(word) || mon == nil && k.Untracked() {
			// In untracked mode every read is verdict-{} or FromWB (the
			// untracked branch precedes every insert, and the dirty case
			// was just probed) — no mutation either way.
			acc++
			continue
		}
		i := lo + j
		k.AddAccesses(acc)
		acc = 0
		var out clank.Outcome
		if f&faWrite != 0 {
			out = k.WritePre(word, vals[j], tr.prev[i], f&faExempt != 0, f&textMask != 0)
		} else {
			out = k.ReadPre(word, vals[j], f&faExempt != 0, f&textMask != 0)
		}
		if out.NeedCheckpoint {
			// Checkpoint-and-refeed: commit with the machine stalled at
			// this access's instruction, then re-feed the whole
			// instruction group, exactly like the general core.
			if !s.refeedInsn(b, i, out.Reason) {
				return false
			}
		} else if mon != nil && !s.settleAccess(b, i, f, out) {
			return false
		}
	}
	k.AddAccesses(acc)
	return true
}

// stepRare replays access i for one slot under continuous power when the
// filter-probe loop does not apply: output commits, volatile skips, and
// every access of a slot with an undo journal. It mirrors colSim's loop
// body exactly (minus the wall checks, which ckptLimit subsumes). Returns
// false once the slot is done.
func (s *slot) stepRare(b *Batch, i int, f uint8, cyc uint64) bool {
	tr := b.tr
	if f&faOutput != 0 {
		// Output commit: bracket with checkpoints (section 3.3). sinceCkpt
		// is cyc - ckptT: useful cycles accrue only from trace deltas.
		if cyc > s.ckptT || s.k.SectionAccesses() > 0 {
			s.commit(clank.ReasonOutput, cyc)
			if s.done {
				return false
			}
		}
		s.commit(clank.ReasonOutput, cyc)
		return !s.done
	}
	if f&faVolatile != 0 {
		if f&faWrite != 0 && tr.addr[i] < s.minStackWrite {
			s.minStackWrite = tr.addr[i]
		}
		return true
	}
	word := tr.addr[i] >> 2
	exempt := f&faExempt != 0
	inText := f&s.textMask != 0
	var out clank.Outcome
	if f&faWrite != 0 {
		out = s.k.WritePre(word, tr.value[i], tr.prev[i], exempt, inText)
	} else {
		out = s.k.ReadPre(word, tr.value[i], exempt, inText)
	}
	if out.NeedCheckpoint {
		// refeedInsn re-applies this access (with its bookkeeping) as the
		// last member of the re-fed instruction group.
		return s.refeedInsn(b, i, out.Reason)
	}
	return s.settleAccess(b, i, f, out)
}

// settleAccess performs the post-verdict bookkeeping for access i — undo
// journaling and monitor hooks — shared by probeSpan, stepRare and
// refeedInsn. Returns false once the slot is done.
func (s *slot) settleAccess(b *Batch, i int, f uint8, out clank.Outcome) bool {
	tr := b.tr
	word := tr.addr[i] >> 2
	if s.o.UndoLog && out.Buffered {
		s.res.CkptCycles += s.o.Costs.WBFlushPerEntry
		s.undoEntries++
		if s.res.CkptCycles > s.ckptLimit {
			s.needsPowered = true
			s.done = true
			return false
		}
		return true
	}
	if f&faWrite != 0 {
		if !out.Buffered && s.mon != nil {
			if v := s.mon.WriteNV(word, tr.value[i], tr.pc[i]); v != nil {
				s.fail(i, tr.cycle[i], v)
				return false
			}
		}
	} else if !out.FromWB && s.mon != nil {
		s.mon.ReadNV(word, tr.value[i])
	}
	return true
}

// fail ends the slot at the monitor violation v raised by access i (stamped
// cyc), with the general core's error text and wall-cycle count.
func (s *slot) fail(i int, cyc uint64, v error) {
	// i doubles as the general core's access counter: every prior access
	// advanced it by exactly one.
	s.err = fmt.Errorf("policysim: dynamic verification failed at access %d: %w", i, v)
	s.res.WallCycles = cyc + s.res.CkptCycles
	s.done = true
}

// refeedInsn commits the checkpoint a vetoed access demanded and then
// re-feeds that access's whole instruction group: the commit happens with
// the machine stalled at the instruction, so the full system re-executes
// it from scratch afterwards, re-issuing the earlier accesses of an
// interrupted PUSH/POP/LDM/STM into the fresh buffers
// (colSim.insnStart is the general core's counterpart). Group members
// share one PC and one cycle stamp, so the re-fed deltas are zero; a
// member that vetoes again recommits and restarts the group. Returns false
// once the slot is done.
func (s *slot) refeedInsn(b *Batch, i int, reason clank.Reason) bool {
	tr := b.tr
	cyc := tr.cycle[i]
	s.commit(reason, cyc)
	if s.done {
		return false
	}
	g := i
	for g > 0 && tr.pc[g-1] == tr.pc[i] && tr.cycle[g-1] == cyc {
		g--
	}
	// The general core's refeedGate livelock guard: a group that was
	// already re-fed once degrades to retrying each vetoed access alone
	// (one checkpoint per access), so a group that alone overflows a tiny
	// buffer still makes progress. Inside a re-fed group the gate is
	// already set, so every further veto is a lone retry — matching the
	// colSim loop, which re-enters the veto branch with the gate equal to
	// the group start.
	start := g
	if s.refeedGate == g {
		start = i
	}
	s.refeedGate = g
	for j := start; j <= i; j++ {
		f := s.class[j]
		if f&faOutput != 0 {
			continue // output stores are single-access instructions
		}
		if f&faVolatile != 0 {
			if f&faWrite != 0 && tr.addr[j] < s.minStackWrite {
				s.minStackWrite = tr.addr[j]
			}
			continue
		}
		word := tr.addr[j] >> 2
		var out clank.Outcome
		if f&faWrite != 0 {
			out = s.k.WritePre(word, tr.value[j], tr.prev[j], f&faExempt != 0, f&s.textMask != 0)
		} else {
			out = s.k.ReadPre(word, tr.value[j], f&faExempt != 0, f&s.textMask != 0)
		}
		if out.NeedCheckpoint {
			s.commit(out.Reason, cyc)
			if s.done {
				return false
			}
			j-- // gate already set for this group: retry the member alone
			continue
		}
		if !s.settleAccess(b, j, f, out) {
			return false
		}
	}
	return true
}

// tail runs the general core's end-of-trace epilogue: the cycles after
// the last access, then the final commit.
func (s *slot) tail(b *Batch, prevT uint64) {
	total := b.tr.total
	if total < prevT {
		s.needsPowered = true
		s.done = true
		return
	}
	s.commit(clank.ReasonNone, total)
	if s.done {
		// The final commit pushed CkptCycles past ckptLimit; whether that
		// is a wall-limit failure is the general core's call.
		return
	}
	s.res.WallCycles = total + s.res.CkptCycles
	s.res.Completed = true
	s.done = true
	s.res.Finish()
}

// commit is the continuous-power checkpoint: with power that cannot fail
// mid-routine the interruptible step walk always completes, its cost sums
// to the closed-form clank.CommitCost, the armed journal is always
// drained, and the applied dirty values equal the trace's own (identity
// shadow) — so the whole routine collapses to cost accounting plus the
// detector reset.
func (s *slot) commit(reason clank.Reason, cyc uint64) {
	dirty := s.k.WBDirty()
	if s.o.UndoLog {
		// Undo discipline: values are already in NV; committing just
		// truncates the journal.
		dirty = 0
	}
	if s.o.Mixed != nil && s.minStackWrite < s.o.Mixed.StackTop {
		words := uint64(s.o.Mixed.StackTop-s.minStackWrite) / 4
		s.res.CkptCycles += words * s.o.Costs.StackWordSave
		s.minStackWrite = s.o.Mixed.StackTop
	}
	s.res.CkptCycles += clank.CommitCost(s.o.Costs, dirty)
	s.ckptT = cyc
	s.undoEntries = 0
	s.res.CountCheckpoint(reason)
	s.k.Reset()
	if s.mon != nil {
		s.mon.Reset()
	}
	// CkptCycles is the only term of the wall that the hoisted loop-top
	// checks cannot bound ahead of time, so re-check the budget at every
	// point it grows.
	if s.res.CkptCycles > s.ckptLimit {
		s.needsPowered = true
		s.done = true
	}
}

// runPowered replays one job on the general core (colSim): every
// power-cycled job, every lockstep bail-out, and every Simulate call.
func (b *Batch) runPowered(s *slot) error {
	shadow := shadowPool.Get().(*shadowStore)
	shadow.begin()
	defer shadowPool.Put(shadow)
	c := &b.cs
	*c = colSim{
		b:          b,
		tr:         b.tr,
		class:      s.class,
		textOn:     s.textOn,
		k:          s.k,
		mon:        s.mon,
		o:          s.o,
		shadow:     shadow,
		refeedGate: -1,
		led:        clank.NewLedger(s.o.PerfWatchdog, s.o.ProgressDefault),
	}
	c.led.UsefulCycles = b.tr.total
	c.led.PowerOn(c.o.Supply)
	if c.o.Mixed != nil {
		c.minStackWrite = c.o.Mixed.StackTop
	}
	err := c.run()
	s.res = Result{Completed: c.completed, Counters: c.led.Counters}
	s.done = true
	return err
}

// Sweep shards a configuration space across a worker pool the way
// verify.Sweep shards its pattern space: shard j is the fixed job range
// [j*ShardSize, (j+1)*ShardSize), workers pull shard indices from an
// atomic counter, and every job's Result is written to its own index — so
// a job's (shard, seq) coordinates and the full output are byte-identical
// at any worker count, and a failure report's coordinates reproduce with
// `-workers 1`. Scheduling decides only which worker visits a shard,
// never what the shard computes.
type Sweep struct {
	Trace *BatchTrace
	Jobs  []Job

	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// ShardSize is the number of jobs per shard (batch); 0 means 64.
	ShardSize int
}

// Run executes the sweep. Results are indexed like Jobs; the error is the
// failure with the lowest (shard, seq) coordinates, i.e. the lowest job
// index, independent of worker count.
func (s *Sweep) Run() ([]Result, error) {
	n := len(s.Jobs)
	out := make([]Result, n)
	if n == 0 {
		return out, nil
	}
	errs := make([]error, n)
	size := s.ShardSize
	if size <= 0 {
		size = 64
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := (n + size - 1) / size
	if workers > shards {
		workers = shards
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= shards {
					return
				}
				lo := idx * size
				hi := min(lo+size, n)
				b, err := NewBatch(s.Trace, s.Jobs[lo:hi])
				if err != nil {
					// Attribute the construction error to the first
					// invalid job of the shard.
					at := lo
					for j := lo; j < hi; j++ {
						if verr := validateJob(s.Trace, s.Jobs[j]); verr != nil {
							at, err = j, verr
							break
						}
					}
					errs[at] = err
					continue
				}
				b.Run(out[lo:hi], errs[lo:hi])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("policysim: sweep job %d (shard %d, seq %d, config %s): %w",
				i, i/size, i%size, s.Jobs[i].Config, err)
		}
	}
	return out, nil
}
