// Package policysim is the reproduction of the paper's Clank policy
// simulator: it replays a memory-access log captured by the instruction-set
// simulator against a Clank buffer configuration, a policy-optimization
// setting, and a power-cycle distribution, and reports the detailed
// checkpoint / restart / re-execution overhead breakdown. Like the paper's
// artifact it dynamically verifies idempotence with the reference monitor
// on every run (paper sections 5 and 7.1).
package policysim

import (
	"errors"
	"math"
	"sync"

	"repro/internal/armsim"
	"repro/internal/clank"
	"repro/internal/power"
)

// MixedVolatility describes a mixed-volatility platform (paper section
// 7.6): accesses inside the volatile range bypass Clank (SRAM contents are
// checkpointed wholesale instead), and each checkpoint pays to save the
// stack modified since the previous one.
type MixedVolatility struct {
	VolatileStart uint32 // byte range of volatile SRAM
	VolatileEnd   uint32
	StackTop      uint32 // initial stack pointer, for depth accounting
}

// Options configures a policy simulation.
type Options struct {
	Costs  clank.CostModel
	Supply power.Source // nil = continuous power

	PerfWatchdog    uint64 // 0 = disabled
	ProgressDefault uint64 // 0 = disabled

	// Verify runs the reference monitor (internal/refmon) alongside the
	// replay and fails the job at the first idempotency violation, as
	// every production sweep does. Measured on a 2-vCPU Intel Xeon, the
	// monitor costs 8-11 ns per NV access (perfbench
	// refmon.ns_per_access), and a verified continuous-power sweep takes
	// 1.8-1.9x the host time of an unverified one (policysim.verify_ratio
	// on the clank-explore grid; BenchmarkBatchSweepTable2Verified
	// against BenchmarkBatchSweepTable2 reads 2.0x on the crc Table 2 set).
	Verify bool
	Mixed  *MixedVolatility

	// UndoLog switches the Write-back Buffer's redo-logging discipline
	// for a ReVive-style undo log (paper section 8.3, [32]): violating
	// writes go through to non-volatile memory after journaling the old
	// value, checkpoints clear the journal cheaply, and every power
	// failure pays to roll the journal back. The paper argues redo
	// logging wins on harvested energy because volatility makes rollback
	// free; this mode measures the alternative.
	UndoLog bool

	// MaxWallCycles bounds runaway simulations (0 = 1000x useful).
	MaxWallCycles uint64
}

// Result is the simulator's overhead breakdown.
type Result struct {
	Completed bool
	clank.Counters
}

// CheckpointOverhead is the fraction of useful time spent checkpointing
// (the paper's Figure 5/6 y-axis) including restart costs.
func (r Result) CheckpointOverhead() float64 {
	if r.UsefulCycles == 0 {
		return 0
	}
	return float64(r.CkptCycles+r.RestartCycles) / float64(r.UsefulCycles)
}

// ReexecOverhead is the fraction of useful time spent re-executing.
func (r Result) ReexecOverhead() float64 {
	if r.UsefulCycles == 0 {
		return 0
	}
	return float64(r.ReexecCycles) / float64(r.UsefulCycles)
}

// normalized fills in the option defaults the Options fields document.
// NewBatch applies it to every job, so both replay cores see the same
// derived bounds.
func (o Options) normalized(totalCycles uint64) Options {
	if o.Costs == (clank.CostModel{}) {
		o.Costs = clank.DefaultCosts()
	}
	if o.Supply == nil {
		o.Supply = power.Always{}
	}
	if o.MaxWallCycles == 0 {
		// Runaway guard: 1000x useful plus fixed slack, saturating — the
		// raw product wraps for traces beyond ~1.8e16 cycles, which would
		// turn the guard into a spurious instant "exceeded wall cycles".
		const slack = 100_000_000
		if totalCycles > (math.MaxUint64-slack)/1000 {
			o.MaxWallCycles = math.MaxUint64
		} else {
			o.MaxWallCycles = totalCycles*1000 + slack
		}
	}
	return o
}

// Simulate replays the trace under the given configuration. It is a
// one-job batch replayed on the general columnar core (colSim) whatever
// the supply — never on the lockstep continuous-power specialisation — so
// it stays an independent reference for SimulateBatch's lockstep core.
// Errors are the raw Validate and replay errors, without Batch.Run's job
// wrapping. Each call builds the trace's columns afresh; to replay one
// trace against many configurations, build a BatchTrace once and use
// SimulateBatch or Sweep.
func Simulate(trace []armsim.Access, totalCycles uint64, cfg clank.Config, o Options) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	tr := NewBatchTrace(trace, totalCycles, cfg.TextStart, cfg.TextEnd)
	b, err := NewBatch(tr, []Job{{Config: cfg, Opts: o}})
	if err != nil {
		return Result{}, err
	}
	s := &b.sl[0]
	err = b.runPowered(s)
	return s.res, err
}

var errNoProgress = errors.New("policysim: no forward progress (runt power cycles)")

// shadowStore tracks the committed NV word values that differ from the
// trace baseline. It is a flat word-indexed array rather than a map —
// colSim.cur runs once per replayed access and trace addresses are bounded by
// the 256 KB modeled memory, so direct indexing removes the last hash
// probe from the replay hot loop. Presence is a per-run generation stamp
// and the arrays live in a sync.Pool, so back-to-back simulations (the
// experiment sweeps run thousands) neither allocate nor zero 320 KB each.
type shadowStore struct {
	val []uint32
	gen []uint32
	run uint32 // current generation; gen[w] == run means val[w] is live
}

var shadowPool = sync.Pool{New: func() any {
	return &shadowStore{
		val: make([]uint32, armsim.MemSize>>2),
		gen: make([]uint32, armsim.MemSize>>2),
	}
}}

// begin starts a fresh generation, invalidating every entry in O(1).
func (ss *shadowStore) begin() {
	ss.run++
	if ss.run == 0 { // wrapped: stale stamps could alias, really clear
		clear(ss.gen)
		ss.run = 1
	}
}
