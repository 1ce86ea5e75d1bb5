package clank

import (
	"fmt"

	"repro/internal/power"
)

// ReasonCounts counts checkpoints by cause, indexed by Reason. It is a
// fixed array rather than a map so a run's counters need no allocation
// (million-configuration sweeps and fleet device resets measure the
// difference) and so two Results compare with == — the batch replay
// engine's differential tests rely on that.
type ReasonCounts [NumReasons]int

func (rc ReasonCounts) String() string {
	s := "{"
	for r, n := range rc {
		if n == 0 {
			continue
		}
		if len(s) > 1 {
			s += " "
		}
		s += fmt.Sprintf("%v:%d", Reason(r), n)
	}
	return s + "}"
}

// Counters is the run-time overhead breakdown both engines report: the
// full-system machine's intermittent.Stats and the policy simulator's
// policysim.Result embed it.
type Counters struct {
	UsefulCycles  uint64 // cycles a continuous run needs (CPU work retained)
	WallCycles    uint64 // total powered cycles consumed
	CkptCycles    uint64 // cycles spent in checkpoint routines
	RestartCycles uint64 // cycles spent in start-up/restore routines
	ReexecCycles  uint64 // re-executed program cycles (wall - useful - ckpt - restart)

	Checkpoints   int
	Restarts      int
	BarrenBoots   int // power cycles that made no forward progress
	PerfWatchdogs int // checkpoints forced by the Performance Watchdog
	ProgWatchdogs int // checkpoints forced by the Progress Watchdog

	Reasons ReasonCounts
}

// CountCheckpoint tallies one committed checkpoint under its cause.
// ReasonNone (the program-end commit) counts only as a checkpoint.
func (c *Counters) CountCheckpoint(reason Reason) {
	switch reason {
	case ReasonNone:
	case ReasonPerfWatchdog:
		c.PerfWatchdogs++
		c.Reasons[reason]++
	case ReasonProgWatchdog:
		c.ProgWatchdogs++
		c.Reasons[reason]++
	default:
		c.Reasons[reason]++
	}
	c.Checkpoints++
}

// Overhead returns the total run-time overhead versus continuous execution
// (the paper's "x baseline" minus one).
func (c Counters) Overhead() float64 {
	if c.UsefulCycles == 0 {
		return 0
	}
	return float64(c.WallCycles)/float64(c.UsefulCycles) - 1
}

// Finish attributes the wall cycles not spent on useful work, commits or
// restarts to re-execution.
func (c *Counters) Finish() {
	if sum := c.UsefulCycles + c.CkptCycles + c.RestartCycles; c.WallCycles > sum {
		c.ReexecCycles = c.WallCycles - sum
	}
}

// Ledger is Clank's run-time state machine as both engines charge it: the
// power budget of the current boot, the Performance Watchdog (a checkpoint
// every W cycles without one), and the Progress Watchdog, which arms after
// a boot that committed nothing and halves its load after every further
// barren boot (paper section 3.1.4). It owns the Counters it updates.
//
// The caller owns everything the state machine does not decide: what a
// checkpoint writes and where power may tear it, what a reboot restores,
// and how many consecutive barren boots it tolerates before giving up.
type Ledger struct {
	Counters

	perfWatchdog    uint64 // 0 = off
	progressDefault uint64 // 0 = off

	powerLeft      uint64 // cycles left in this boot; 0 = off
	cyclesThisBoot uint64
	sinceCkpt      uint64 // cycles since the last committed checkpoint
	ckptThisBoot   bool
	progLoad       uint64 // Progress Watchdog load value (0 = never armed since a checkpoint)
	progEnabled    bool
	consecBarren   int
}

// NewLedger returns a powered-off ledger with zero counters under the
// given watchdog load values (0 disables a watchdog).
func NewLedger(perfWatchdog, progressDefault uint64) Ledger {
	return Ledger{perfWatchdog: perfWatchdog, progressDefault: progressDefault}
}

// PowerOn starts the first boot. It counts as a boot that made progress
// (the compiler's checkpoint 0 precedes it), so it never arms the
// Progress Watchdog.
func (l *Ledger) PowerOn(supply power.Source) {
	l.powerLeft = supply.NextOn()
	l.ckptThisBoot = true
}

// Off reports whether power is out: the boot's budget is spent or was cut.
func (l *Ledger) Off() bool { return l.powerLeft == 0 }

// Cut ends the boot at once, discarding the rest of its budget uncharged:
// an injected fault or a scheduled outage switches the device off.
func (l *Ledger) Cut() { l.powerLeft = 0 }

// SinceCkpt returns the cycles charged since the last committed checkpoint.
func (l *Ledger) SinceCkpt() uint64 { return l.sinceCkpt }

// Spend charges delta program cycles, clamped at the outage. It returns
// false when power dies first: the clamped remainder is charged and the
// boot is over.
func (l *Ledger) Spend(delta uint64) bool {
	ok := delta < l.powerLeft
	if !ok {
		delta = l.powerLeft
	}
	l.powerLeft -= delta
	l.WallCycles += delta
	l.cyclesThisBoot += delta
	l.sinceCkpt += delta
	return ok
}

// SpendOverhead charges cost runtime-routine cycles (one checkpoint step,
// the start-up routine) to counter as well as the wall clock. A routine
// step needs strictly more budget than it costs: when cost >= the power
// left, power dies with the step unfinished, the remainder is charged, and
// it returns false. So a boot exactly equal to the restart cost is barren.
func (l *Ledger) SpendOverhead(cost uint64, counter *uint64) bool {
	ok := cost < l.powerLeft
	if !ok {
		cost = l.powerLeft
	}
	l.powerLeft -= cost
	l.WallCycles += cost
	*counter += cost
	l.cyclesThisBoot += cost
	return ok
}

// Linearized records a checkpoint at its linearization point — whether or
// not the rest of the routine survives: the section restarts, the boot has
// made progress, and the Progress Watchdog disarms and forgets its load.
func (l *Ledger) Linearized(reason Reason) {
	l.CountCheckpoint(reason)
	l.sinceCkpt = 0
	l.ckptThisBoot = true
	l.consecBarren = 0
	l.progEnabled = false
	l.progLoad = 0
}

// Boot starts the next power-on period after an outage: it counts the
// restart, draws the boot's budget, and counts a barren boot when the
// previous one committed nothing — arming the Progress Watchdog at its
// default load, or halving an armed load (down to 2). Returns the number
// of consecutive barren boots.
func (l *Ledger) Boot(supply power.Source) int {
	l.Restarts++
	progressed := l.ckptThisBoot
	l.powerLeft = supply.NextOn()
	l.cyclesThisBoot = 0
	l.sinceCkpt = 0
	l.ckptThisBoot = false
	if progressed {
		return 0 // the checkpoint already disarmed the Progress Watchdog
	}
	l.consecBarren++
	l.BarrenBoots++
	if l.progressDefault != 0 {
		if l.progLoad == 0 {
			l.progLoad = l.progressDefault
		} else if l.progLoad > 2 {
			l.progLoad /= 2
		}
		l.progEnabled = true
	}
	return l.consecBarren
}

// WatchdogDue returns the watchdog that demands a checkpoint now, the
// Performance Watchdog first, or ReasonNone.
func (l *Ledger) WatchdogDue() Reason {
	if w := l.perfWatchdog; w != 0 && l.sinceCkpt >= w {
		return ReasonPerfWatchdog
	}
	if l.progEnabled && l.cyclesThisBoot >= l.progLoad {
		return ReasonProgWatchdog
	}
	return ReasonNone
}

// Horizon returns the cycles until the nearest boundary the ledger knows
// of: the outage or either watchdog deadline. It is at least 1 while power
// is on and WatchdogDue returns ReasonNone.
func (l *Ledger) Horizon() uint64 {
	h := l.powerLeft
	if w := l.perfWatchdog; w != 0 && w-l.sinceCkpt < h {
		h = w - l.sinceCkpt
	}
	if l.progEnabled && l.progLoad-l.cyclesThisBoot < h {
		h = l.progLoad - l.cyclesThisBoot
	}
	return h
}
