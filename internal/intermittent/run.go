package intermittent

import (
	"errors"
	"fmt"

	"repro/internal/armsim"
	"repro/internal/clank"
	"repro/internal/scheme"
)

// Run executes the program to completion (BKPT) across power failures and
// returns the statistics. UsefulCycles is the CPU cycle counter at the
// final commit, which equals a continuous run's cycle count.
func (m *Machine) Run() (Stats, error) {
	m.led.PowerOn(m.opts.Supply)

	for {
		if m.led.WallCycles > m.opts.MaxWallCycles {
			return m.result(), fmt.Errorf("intermittent: exceeded %d wall cycles (pc %#x, %d restarts)",
				m.opts.MaxWallCycles, m.cpu.R[armsim.PC], m.led.Restarts)
		}

		// Handle a power outage: roll back, reboot, and pay the start-up
		// routine; boots too short even for the restart are consumed
		// whole (runt cycles).
		if m.led.Off() {
			for {
				if m.powerFail() > m.opts.MaxBarrenBoots {
					return m.result(), errors.New("intermittent: no forward progress (runt power cycles shorter than the restart routine)")
				}
				if m.chargeRestart() {
					break
				}
			}
			continue
		}

		// Watchdogs fire at instruction boundaries. The per-cause counters
		// are charged at the commit point inside checkpoint() — a routine
		// that dies after its linearization point has still committed.
		if r := m.led.WatchdogDue(); r != clank.ReasonNone {
			m.checkpoint(r)
			continue
		}
		// The scheme's own commit schedule (task boundaries, differential
		// intervals). Clank never schedules commits, and its devirtualized
		// machines skip the interface call entirely.
		schedIn := uint64(scheme.Never)
		if m.k == nil {
			var reason clank.Reason
			if schedIn, reason = m.sch.NextCommitIn(m.cpu.Cycle, m.led.SinceCkpt()); schedIn == 0 {
				m.checkpoint(reason)
				continue
			}
		}

		// Fused execution retires whole basic blocks per call — but only
		// blocks whose worst-case cycle cost fits the budget, which is the
		// distance to the nearest boundary event: the power outage, either
		// watchdog deadline, or the wall-cycle bound. When the next block
		// no longer fits, StepFused single-steps, so the instruction that
		// crosses an event boundary is exactly the one insn-at-a-time
		// stepping would execute (and carries exact lazy-evaluated flags
		// into the checkpoint). Runs continue past monitored accesses
		// unless the bus needs this loop at that boundary: a veto returns
		// errCheckpoint with PC on the access, and an output store or a
		// FailAfterAccess cut calls cpu.Yield, returning right after the
		// instruction — so all three land at the same boundaries as
		// single-step. Each guard is > its loop-top check, so the budget
		// is always at least one cycle.
		budget := min(m.led.Horizon(), schedIn, m.opts.MaxWallCycles+1-m.led.WallCycles)
		m.stepCycle = m.cpu.Cycle
		err := m.cpu.StepFused(budget)
		m.led.Spend(m.cpu.Cycle - m.stepCycle)
		if m.cutPower {
			// A FailAfterAccess schedule cut power mid-instruction; the
			// outage takes effect at the instruction boundary, like any
			// supply-driven outage. The unconsumed budget is discarded,
			// not charged: the device is simply off.
			m.cutPower = false
			m.led.Cut()
		}
		if m.led.Off() {
			// The outage is handled at the top of the loop. The
			// just-executed instruction's NV effects persist; the
			// rollback to the last checkpoint re-executes it safely.
			continue
		}

		switch {
		case err == nil:
			if m.forceCkptAfter {
				m.forceCkptAfter = false
				m.checkpoint(clank.ReasonOutput)
			}
		case errors.Is(err, errCheckpoint):
			m.checkpoint(m.pendingReason)
			// Retry the vetoed instruction (or handle the outage).
		case errors.Is(err, armsim.ErrHalted):
			// Program complete: commit the trailing section.
			if !m.checkpoint(clank.ReasonNone) {
				continue // power died during the final commit; redo
			}
			m.stats.Completed = true
			m.led.UsefulCycles = m.cpu.Cycle
			m.stats.Outputs = append([]uint32(nil), m.mem.Outputs...)
			m.led.Finish()
			return m.result(), nil
		default:
			return m.result(), err
		}
	}
}

// result is the run's Stats with the ledger's counters folded in.
func (m *Machine) result() Stats {
	m.stats.Counters = m.led.Counters
	return m.stats
}

// chargeRestart pays the start-up routine at the beginning of a power
// cycle, then decides whether to replay the Write-back journal: only a
// record that validates under its CRC seal AND carries the committed slot's
// sequence number is consumed. A valid journal under any other sequence is
// a dead staging record from a commit that never linearized; a corrupt one
// is a detected torn write. Either way recovery ignores it — detect, never
// consume. Returns false if the boot is too short to finish either part.
// Both the barren boundary (a boot exactly equal to the restart cost is
// barren: the routine completes with nothing left to run; see
// clank.Ledger.SpendOverhead) and the replay are pinned by tests.
func (m *Machine) chargeRestart() bool {
	if !m.led.SpendOverhead(m.opts.Costs.Restart, &m.led.RestartCycles) {
		return false
	}
	count, jseq, st := m.decodeJournal()
	if st == clank.RecCorrupt {
		m.stats.DetectedCorrupt++
	}
	if st == clank.RecValid && jseq == m.activeSeq && count > 0 {
		return m.recoverJournal(count)
	}
	return true
}

// recoverJournal is the reboot-time recovery routine for a torn commit: the
// slot record sealed (so the journal's sequence matches the committed
// checkpoint) but power died before every journaled value reached its home
// location. Replay each armed entry, then clear the journal length word.
// Every step is itself an NV word write subject to the fault injector and
// the power budget — including torn mid-word applies. Replay is idempotent:
// the applies never modify the journal record, so dying inside it (even
// tearing a home word) leaves the record validating and the next boot
// replays again from entry zero; only the final clear retires it, and a
// torn clear leaves the record disarmed or detectably corrupt, never a
// different replay set (pinned at the clank layer).
func (m *Machine) recoverJournal(count int) bool {
	m.stepScratch = clank.AppendRecoverySteps(m.stepScratch[:0], m.opts.Costs, count)
	for _, s := range m.stepScratch {
		ok, torn, mask := m.commitWrite(s.Cost, &m.led.RestartCycles)
		switch s.Kind {
		case clank.StepApply:
			addr, val := clank.JournalEntry(m.jnlNV.Words(), s.Index)
			if torn {
				old := m.mem.ReadWord(addr)
				m.mem.WriteWord(addr, old&^mask|val&mask)
			} else if ok {
				m.mem.WriteWord(addr, val)
			}
		case clank.StepClear:
			if torn {
				m.jnlNV.SetWordMasked(clank.JnlLenWord, 0, mask)
			} else if ok {
				m.jnlNV.SetWord(clank.JnlLenWord, 0)
			}
		}
		if !ok {
			return false
		}
	}
	m.stats.RecoveredCommits++
	return true
}

// commitWrite spends one commit-protocol NV word write against the power
// budget (attributed to the given overhead counter) and consults the fault
// injector. The write counter advances on consultation — before the write
// lands — so a single-index hook never re-fires on the redone commit.
//
// ok means the write lands completely and the routine continues. On
// (ok=false, torn=true) an injected fault tore the write: the caller must
// land exactly the bits in mask (old&^mask | new&mask) and then stop — the
// device is off, the rest of the boot's budget discarded (mirroring
// FailAfterAccess). On (ok=false, torn=false) nothing lands: a mask-0
// injected cut, or a budget death, which burns the remainder into the wall
// clock exactly as the old atomic model did. Budget deaths land word-
// atomically by design: the adversarial injector owns the torn space, and
// the sweep proves any mask outcome is equivalent to a clean cut anyway.
func (m *Machine) commitWrite(cost uint64, counter *uint64) (ok, torn bool, mask uint32) {
	w := m.stats.CommitWrites
	m.stats.CommitWrites++
	if m.opts.NVFault != nil {
		if fault, fmask := m.opts.NVFault(w); fault {
			m.led.Cut()
			if fmask != 0 {
				m.stats.TornWrites++
				return false, true, fmask
			}
			return false, false, 0
		}
	}
	return m.led.SpendOverhead(cost, counter), false, 0
}

// checkpoint runs the modeled checkpoint routine as the explicit sequence
// of non-volatile word writes of the two-phase commit (clank.CommitStep):
// journal every dirty Write-back entry and seal the journal record under
// the next sequence number, write the register-checkpoint record into the
// non-best slot and seal it — the slot-seal CRC write is the single
// linearization point — then apply the journaled entries to their home
// locations, rewrite the retiring slot's payload (phase 2, invalidating the
// old record), and clear the journal. Power may die during any of these
// writes, landing any subset of the written bits.
//
// Returns false if power failed anywhere in the routine; the top of the run
// loop then performs the rollback. Whether anything committed is carried by
// the non-volatile state, not the return value: a cut before the slot-seal
// CRC leaves the old record the best valid one (the staged journal and slot
// writes are dead or sequence-mismatched, and a torn write there fails its
// CRC), while a cut after it committed the new checkpoint — powerFail
// restores from it, and chargeRestart finishes the interrupted drain by
// replaying the sequence-matched journal.
//
// Seal values are taken from the staged record for the slot and computed
// over the live region for the journal CRC: for the correct protocol the
// two agree (entries land before the seal), while a protocol bug that seals
// early naturally seals whatever garbage the region holds — exactly how the
// real runtime would fail.
func (m *Machine) checkpoint(reason clank.Reason) bool {
	m.dirtyScratch = m.sch.DirtyEntries(m.dirtyScratch[:0])
	dirty := m.dirtyScratch
	m.stepScratch = clank.AppendCommitSteps(m.stepScratch[:0], m.opts.Costs, len(dirty))
	steps := m.stepScratch
	if m.opts.CommitBug == BugEarlyFlip {
		steps = reorderEarlyFlip(steps)
	}
	seq := m.nextSeq
	target := 1 - m.active
	tgt := m.slotNV[target]
	retiring := m.slotNV[m.active]
	jn := m.jnlNV
	jn.Ensure(clank.JournalWords(len(dirty)))
	clank.EncodeSlot(m.slotEnc[:], clank.SlotRecord{
		Regs:     m.cpu.Regs(),
		PSR:      m.cpu.PSR(),
		Cycle:    m.cpu.Cycle,
		Outputs:  uint32(len(m.mem.Outputs)),
		Suppress: uint32(m.outSuppress),
		Seq:      seq,
	})
	for _, s := range steps {
		var (
			reg   *armsim.NVRegion
			idx   int
			val   uint32
			toMem bool
			addr  uint32
		)
		switch s.Kind {
		case clank.StepJournal:
			e := dirty[s.Index]
			reg, idx = jn, clank.JournalEntryWord(s.Index, int(s.Sub))
			if s.Sub == 0 {
				val = e.Word << 2
			} else {
				val = e.Value
			}
		case clank.StepJSeal:
			reg = jn
			idx = jnlSealWord(m.opts.CommitBug, s.Sub)
			switch idx {
			case clank.JnlLenWord:
				val = uint32(len(dirty))
			case clank.JnlSeqWord:
				val = seq
			case clank.JnlCRCWord:
				val = clank.JournalCRC(jn.Words(), len(dirty))
			}
		case clank.StepSlot:
			reg, idx, val = tgt, s.Index, m.slotEnc[s.Index]
		case clank.StepSeal:
			reg = tgt
			idx = slotSealWord(m.opts.CommitBug, s.Sub)
			val = m.slotEnc[idx]
		case clank.StepApply:
			a, v := clank.JournalEntry(jn.Words(), s.Index)
			toMem, addr, val = true, a, v
		case clank.StepSlot2:
			reg, idx, val = retiring, s.Index, m.slotEnc[s.Index]
		case clank.StepClear:
			reg, idx, val = jn, clank.JnlLenWord, 0
		}
		ok, torn, mask := m.commitWrite(s.Cost, &m.led.CkptCycles)
		if toMem {
			if torn {
				old := m.mem.ReadWord(addr)
				m.mem.WriteWord(addr, old&^mask|val&mask)
			} else if ok {
				m.mem.WriteWord(addr, val)
			}
		} else if torn {
			reg.SetWordMasked(idx, val, mask)
		} else if ok {
			reg.SetWord(idx, val)
		}
		if !ok {
			m.stats.TornCommits++
			return false
		}
		if s.Kind == clank.StepSeal && s.Sub == clank.RecSealWords-1 {
			// Linearized: the new record is complete on NV and outranks
			// the old one by sequence.
			m.active = target
			m.activeSeq = seq
			m.nextSeq = seq + 1
			m.led.Linearized(reason)
		}
	}
	// Fully drained: the scheme's buffered state is persistent now, and
	// progress-relative schedules (task boundaries) re-base here.
	m.sch.Committed(m.cpu.Cycle)
	if m.mon != nil {
		m.mon.Reset()
	}
	return true
}

// slotSealWord maps a slot-seal sub-step to its record word under the
// active protocol variant. The correct order is length, sequence, CRC —
// CRC last, so the record validates only when complete. BugSkipCRC writes
// CRC (ignored), length, sequence: its arming write is still Sub 2, which
// is what makes it correct under word-atomic writes and wrong under torn
// ones.
func slotSealWord(bug CommitBug, sub uint8) int {
	if bug == BugSkipCRC {
		return [clank.RecSealWords]int{clank.SlotCRCWord, clank.SlotLenWord, clank.SlotSeqWord}[sub]
	}
	return [clank.RecSealWords]int{clank.SlotLenWord, clank.SlotSeqWord, clank.SlotCRCWord}[sub]
}

// jnlSealWord is slotSealWord's journal twin: correct order length,
// sequence, CRC; BugSkipCRC writes CRC (ignored), sequence, length — the
// length word arms a CRC-less journal, so it comes last.
func jnlSealWord(bug CommitBug, sub uint8) int {
	if bug == BugSkipCRC {
		return [clank.RecSealWords]int{clank.JnlCRCWord, clank.JnlSeqWord, clank.JnlLenWord}[sub]
	}
	return [clank.RecSealWords]int{clank.JnlLenWord, clank.JnlSeqWord, clank.JnlCRCWord}[sub]
}

// reorderEarlyFlip rearranges the commit sequence into the deliberately
// broken variant BugEarlyFlip describes: the journal seal, slot record, and
// slot seal run first, the journal entry writes after. The cost granules
// are unchanged, only the write order — exactly the kind of bug the
// crash-consistency sweep exists to catch: the early journal seal's CRC
// covers the region's stale entries, so a cut before the real entries land
// replays garbage, and a cut after they land leaves a sealed record whose
// contents no longer match its CRC — the Write-back values unreplayable
// either way.
func reorderEarlyFlip(steps []clank.CommitStep) []clank.CommitStep {
	out := make([]clank.CommitStep, 0, len(steps))
	var journals, tail []clank.CommitStep
	sealed := false
	for _, s := range steps {
		switch {
		case s.Kind == clank.StepJournal:
			journals = append(journals, s)
		case !sealed:
			out = append(out, s)
			if s.Kind == clank.StepSeal && s.Sub == clank.RecSealWords-1 {
				sealed = true
			}
		default:
			tail = append(tail, s)
		}
	}
	out = append(out, journals...)
	return append(out, tail...)
}

// decodeSlot decodes slot i's NV record under the active protocol variant.
func (m *Machine) decodeSlot(i int) (clank.SlotRecord, clank.RecStatus) {
	if m.opts.CommitBug == BugSkipCRC {
		return clank.DecodeSlotLoose(m.slotNV[i].Words())
	}
	return clank.DecodeSlot(m.slotNV[i].Words())
}

// decodeJournal decodes the journal's NV record under the active protocol
// variant.
func (m *Machine) decodeJournal() (count int, seq uint32, st clank.RecStatus) {
	if m.opts.CommitBug == BugSkipCRC {
		return clank.DecodeJournalLoose(m.jnlNV.Words())
	}
	return clank.DecodeJournal(m.jnlNV.Words())
}

// degradedRestore is the graceful-degradation floor of detect-and-recover
// reboot: neither slot holds a valid record (possible only under multiple
// overlapping faults — a single torn write always leaves the retiring slot
// intact), so the device falls back to fresh-boot semantics. Execution
// restarts from the pristine image, but the output log — the externally
// visible history — is preserved, and every output the lost execution
// already emitted is suppressed on re-emission rather than duplicated
// (outSuppress, carried across subsequent checkpoints in the slot record's
// Suppress field). The next sequence number advances past every raw seq
// cell so a later commit can never collide with stale sealed state, and the
// journal is disarmed: its staged writes belong to an execution whose
// checkpoint basis is gone.
func (m *Machine) degradedRestore() {
	m.stats.DegradedBoots++
	outs := m.mem.Outputs
	_ = m.mem.ResetTo(m.img.Bytes)
	m.mem.Outputs = outs
	m.outSuppress = len(outs)
	m.cpu.ResetInto(m.img.InitialSP, m.img.Entry)
	m.cpu.Cycle = 0
	m.cpu.Halt = false
	next := m.slotNV[0].Word(clank.SlotSeqWord)
	if s := m.slotNV[1].Word(clank.SlotSeqWord); s > next {
		next = s
	}
	if s := m.jnlNV.Word(clank.JnlSeqWord); s > next {
		next = s
	}
	m.active, m.activeSeq = 0, 0
	m.nextSeq = next + 1
	// Re-initialization write, not a commit-protocol write: uncharged and
	// invisible to the fault injector.
	m.jnlNV.SetWord(clank.JnlLenWord, 0)
}

// powerFail models the loss of all volatile state: Clank's buffers (with
// any un-flushed Write-back entries — free rollback via redo logging) and
// the register file. Reboot is detect-and-recover: both A/B slot records
// are decoded, corrupt ones are counted and never consumed, and the CPU
// resumes from the valid record with the highest sequence number — the new
// slot if a dying commit got past its seal, the old one otherwise, and the
// fresh-boot degraded path if neither validates. Then the ledger starts
// the next boot; powerFail returns its count of consecutive barren boots.
func (m *Machine) powerFail() int {
	if m.mon != nil {
		m.mon.Reset()
	}
	recA, stA := m.decodeSlot(0)
	recB, stB := m.decodeSlot(1)
	if stA == clank.RecCorrupt {
		m.stats.DetectedCorrupt++
	}
	if stB == clank.RecCorrupt {
		m.stats.DetectedCorrupt++
	}
	best, rec := -1, clank.SlotRecord{}
	if stA == clank.RecValid {
		best, rec = 0, recA
	}
	if stB == clank.RecValid && (best < 0 || recB.Seq > rec.Seq) {
		best, rec = 1, recB
	}
	if best < 0 {
		m.degradedRestore()
	} else {
		m.active = best
		m.activeSeq = rec.Seq
		// Monotonicity: never reuse a sequence still present in a valid
		// journal record, or a clean (journal-less) commit could linearize
		// under the sequence of a stale staged journal and resurrect it.
		m.nextSeq = rec.Seq + 1
		if _, jseq, st := m.decodeJournal(); st == clank.RecValid && jseq >= m.nextSeq {
			m.nextSeq = jseq + 1
		}
		m.cpu.R = rec.Regs
		m.cpu.SetPSR(rec.PSR)
		m.cpu.Cycle = rec.Cycle
		m.cpu.Halt = false
		// Discard outputs emitted after the committed checkpoint: their
		// trailing checkpoint never landed, so the re-executed section
		// will emit them again (the record's output watermark). The clamp
		// is defensive: a validating record can only carry a watermark we
		// wrote, but externally corrupted NV images (fuzzing) go through
		// here too.
		w := int(rec.Outputs)
		if w > len(m.mem.Outputs) {
			w = len(m.mem.Outputs)
		}
		m.mem.Outputs = m.mem.Outputs[:w]
		m.outSuppress = int(rec.Suppress)
	}
	// All volatile scheme state died with the power; schedules re-derive
	// from the restored progress clock (0 on a degraded boot).
	m.sch.Reboot(m.cpu.Cycle)
	m.forceCkptAfter = false
	return m.led.Boot(m.opts.Supply)
}
