package policysim

import (
	"fmt"

	"repro/internal/clank"
	"repro/internal/refmon"
)

// colSim is the general replay core: it drives the run-time state
// machine (clank.Ledger, shared with the full-system machine) over
// BatchTrace columns, one job at a time, through the pre-classified
// detector entry points. It serves every Simulate call, every power-cycled
// batch job and the rare continuous batch job that outgrows the lockstep
// core's guard.
// The lockstep core (batch.go) is a continuous-power specialisation of it;
// TestBatchMatchesScalar pins the two to byte-identical Results.
type colSim struct {
	b      *Batch
	tr     *BatchTrace
	class  []uint8
	textOn bool
	k      *clank.Clank
	mon    *refmon.Monitor
	o      Options

	shadow *shadowStore

	pos        int
	ckptPos    int
	refeedGate int // last access index whose instruction group was re-fed
	prevT      uint64
	ckptT      uint64

	led       clank.Ledger
	completed bool

	minStackWrite uint32
	undoEntries   int
	jarmed        int
}

// maxBarrenBoots is how many consecutive boots without a committed
// checkpoint a replay tolerates before reporting errNoProgress.
const maxBarrenBoots = 100_000

func (c *colSim) run() error {
	tr := c.tr
	n := len(tr.addr)
	for {
		if c.led.WallCycles > c.o.MaxWallCycles {
			return fmt.Errorf("policysim: exceeded %d wall cycles at access %d/%d (%d restarts)",
				c.o.MaxWallCycles, c.pos, n, c.led.Restarts)
		}
		if c.led.Off() {
			if err := c.reboot(); err != nil {
				return err
			}
			continue
		}
		if c.pos == n {
			// Tail: cycles after the last access until program end, then
			// the final commit.
			if !c.led.Spend(tr.total - c.prevT) {
				continue
			}
			c.prevT = tr.total
			if !c.checkpoint(clank.ReasonNone) {
				continue
			}
			c.completed = true
			c.led.Finish()
			return nil
		}

		i := c.pos
		cyc := tr.cycle[i]
		if !c.led.Spend(cyc - c.prevT) {
			continue
		}
		c.prevT = cyc

		f := c.class[i]
		if f&faOutput != 0 {
			// Output commit: bracket with checkpoints (section 3.3).
			if c.led.SinceCkpt() > 0 || c.k.SectionAccesses() > 0 {
				if !c.checkpoint(clank.ReasonOutput) {
					continue
				}
			}
			c.pos++
			if !c.checkpoint(clank.ReasonOutput) {
				continue
			}
		} else if f&faVolatile != 0 {
			// Volatile SRAM: invisible to Clank; track stack depth for
			// checkpoint sizing.
			if f&faWrite != 0 && tr.addr[i] < c.minStackWrite {
				c.minStackWrite = tr.addr[i]
			}
			c.pos++
		} else {
			word := tr.addr[i] >> 2
			exempt := f&faExempt != 0
			inText := f&faText != 0 && c.textOn
			var out clank.Outcome
			if f&faWrite != 0 {
				out = c.k.WritePre(word, tr.value[i], c.cur(word, tr.prev[i]), exempt, inText)
			} else {
				out = c.k.ReadPre(word, c.cur(word, tr.value[i]), exempt, inText)
			}
			if out.NeedCheckpoint {
				// A veto checkpoints with the CPU stalled at the access's
				// instruction, so the full system re-executes that whole
				// instruction afterwards — re-issuing the earlier accesses
				// of an interrupted PUSH/POP/LDM/STM into the fresh
				// buffers. Rewind to the instruction group's first access
				// (members share one PC and cycle stamp, so the re-fed
				// deltas are zero) before committing, so the checkpoint
				// resume position is the instruction boundary. The gate
				// stops a livelock when the group alone overflows a tiny
				// buffer: a group that was already re-fed once degrades to
				// retrying each vetoed access alone (one checkpoint per
				// access, the access-log granularity the paper's simulator
				// uses).
				if g := c.insnStart(c.pos); g != c.refeedGate {
					c.refeedGate = g
					c.pos = g
				}
				c.checkpoint(out.Reason)
				continue
			}
			if c.o.UndoLog && out.Buffered {
				// Undo-log discipline (section 8.3): journal the old value
				// to NV (two word writes plus bookkeeping) and let the
				// write through instead of holding it in the volatile
				// buffer. The journal is rolled back at every reboot.
				if !c.led.SpendOverhead(c.o.Costs.WBFlushPerEntry, &c.led.CkptCycles) {
					continue
				}
				c.undoEntries++
				c.setShadow(word, tr.value[i])
				c.pos++
				goto watchdogs
			}
			if f&faWrite != 0 && !out.Buffered {
				if c.mon != nil {
					if v := c.mon.WriteNV(word, tr.value[i], tr.pc[i]); v != nil {
						return fmt.Errorf("policysim: dynamic verification failed at access %d: %w", c.pos, v)
					}
				}
				c.setShadow(word, tr.value[i])
			}
			// A faNoReport read cannot change a monitor verdict, so the
			// monitor need not see it.
			if f&faWrite == 0 && f&faNoReport == 0 && !out.FromWB && c.mon != nil {
				c.mon.ReadNV(word, tr.value[i])
			}
			c.pos++
		}

	watchdogs:
		// Watchdogs, quantized to access boundaries. Like the full system,
		// the per-cause counters are charged at the commit point inside
		// checkpoint().
		if r := c.led.WatchdogDue(); r != clank.ReasonNone {
			c.checkpoint(r)
		}
	}
}

// insnStart returns the index of the first access issued by the
// instruction that produced trace position pos. Multi-access instructions
// stamp every access with the same PC and the same (pre-instruction) cycle
// count; two runs of the same instruction can never share a stamp because
// every instruction costs at least one cycle.
func (c *colSim) insnStart(pos int) int {
	tr := c.tr
	i := pos
	for pos > 0 && tr.pc[pos-1] == tr.pc[i] && tr.cycle[pos-1] == tr.cycle[i] {
		pos--
	}
	return pos
}

// cur returns the current committed NV value of word, falling back to the
// continuous-trace value.
func (c *colSim) cur(word, fallback uint32) uint32 {
	if c.shadow.gen[word] == c.shadow.run {
		return c.shadow.val[word]
	}
	return fallback
}

// setShadow records a committed NV write.
func (c *colSim) setShadow(word, v uint32) {
	c.shadow.val[word] = v
	c.shadow.gen[word] = c.shadow.run
}

// checkpoint models the checkpoint routine as the same sequence of NV word
// writes the full-system machine walks (clank.AppendCommitSteps), so the
// two die at the same cycle boundaries and agree on what a mid-routine
// power failure committed: a death before the slot-seal CRC write
// committed nothing, a death after it committed the checkpoint — the
// replay resumes from the new position and the reboot pays to drain the
// armed journal. Returns false when power died anywhere in the routine.
// The scratch buffers live on the Batch so back-to-back jobs share them.
func (c *colSim) checkpoint(reason clank.Reason) bool {
	c.b.dirtyScratch = c.k.DirtyEntries(c.b.dirtyScratch[:0])
	dirty := c.b.dirtyScratch
	if c.o.UndoLog {
		// Undo discipline: values are already in NV; committing just
		// truncates the journal.
		dirty = nil
	}
	if c.o.Mixed != nil && c.minStackWrite < c.o.Mixed.StackTop {
		// The volatile-stack save precedes the slot writes: all pre-flip.
		words := uint64(c.o.Mixed.StackTop-c.minStackWrite) / 4
		if !c.led.SpendOverhead(words*c.o.Costs.StackWordSave, &c.led.CkptCycles) {
			return false
		}
	}
	c.b.stepScratch = clank.AppendCommitSteps(c.b.stepScratch[:0], c.o.Costs, len(dirty))
	for _, st := range c.b.stepScratch {
		if !c.led.SpendOverhead(st.Cost, &c.led.CkptCycles) {
			return false
		}
		switch st.Kind {
		case clank.StepSeal:
			if st.Sub != clank.RecSealWords-1 {
				continue
			}
			// The slot-seal CRC write is the linearization point: the values
			// the journal carries are committed from here on (the shadow
			// store models the final NV state, so the not-yet-applied
			// entries land now; a post-seal death replays them at reboot,
			// charged there).
			for _, e := range dirty {
				c.setShadow(e.Word, e.Value)
			}
			c.ckptPos = c.pos
			c.ckptT = c.prevT
			c.undoEntries = 0
			c.jarmed = len(dirty)
			if c.o.Mixed != nil {
				c.minStackWrite = c.o.Mixed.StackTop
			}
			c.led.Linearized(reason)
		case clank.StepClear:
			c.jarmed = 0
		}
	}
	c.k.Reset()
	if c.mon != nil {
		c.mon.Reset()
	}
	return true
}

// reboot rolls back to the last checkpoint, starts the next power-on
// period, and pays the start-up routine (looping over boots too short to
// finish it).
func (c *colSim) reboot() error {
	for {
		c.k.Reset()
		if c.mon != nil {
			c.mon.Reset()
		}
		c.pos = c.ckptPos
		c.prevT = c.ckptT
		if c.o.Mixed != nil {
			c.minStackWrite = c.o.Mixed.StackTop
		}
		if c.led.Boot(c.o.Supply) > maxBarrenBoots {
			return errNoProgress
		}
		// The start-up routine, plus (in undo mode) rolling the journal
		// back, plus — after a post-flip commit death — replaying the armed
		// Write-back journal; all must fit in the new boot or it is barren.
		bootCost := c.o.Costs.Restart
		if c.o.UndoLog {
			bootCost += uint64(c.undoEntries) * c.o.Costs.WBFlushPerEntry
		}
		if c.jarmed > 0 {
			bootCost += clank.RecoveryCost(c.o.Costs, c.jarmed)
		}
		if c.led.SpendOverhead(bootCost, &c.led.RestartCycles) {
			c.undoEntries = 0
			c.jarmed = 0
			return nil
		}
	}
}
