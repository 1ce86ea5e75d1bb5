// Package fleet simulates populations of intermittent devices: thousands
// to millions of intermittent.Machine instances running one compiled image
// through a single frozen decode+fusion cache (intermittent.
// BuildSharedProgram), each device owning only its non-volatile memory,
// Clank detector state, and power supply. The paper evaluates Clank one
// device at a time; a deployment is a field of harvesting nodes whose
// environments differ per node, and the fleet engine answers the
// population-level questions — forward-progress percentiles, checkpoint
// and re-execution overhead distributions, torn-commit rates — that no
// single trace can.
//
// Determinism is load-bearing: the aggregate telemetry (and the per-device
// results it is folded from) is byte-identical for any worker count and
// any shard size, because every source of randomness is derived from
// (Options.Seed, device ID) alone and results are folded in device order
// after the shards complete. Worker scheduling decides only WHICH machine
// simulates a device, and a reused machine is reset to factory state
// between devices (intermittent.Machine.ResetDevice) — a property pinned
// by the worker-count invariance tests.
package fleet

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/intermittent"
	"repro/internal/pool"
	"repro/internal/power"
	"repro/internal/scheme"
)

// Options configures a fleet run.
type Options struct {
	// Devices is the population size (required).
	Devices int
	// Workers is the simulation goroutine count; 0 means GOMAXPROCS.
	// The worker count never affects results, only wall-clock time.
	Workers int
	// ShardSize is the device count per work unit (0 = 64). Like Workers
	// it is a scheduling knob with no effect on results.
	ShardSize int

	// Seed is the base seed; each device's supply seed is derived from
	// (Seed, device ID), so two runs with equal seeds are identical and
	// perturbing one device's seed perturbs exactly that device.
	Seed uint64

	// Config is the Clank hardware configuration every device carries.
	Config clank.Config
	// Scheme is the runtime scheme every device runs under (nil = Clank).
	// Workers build one scheme instance per machine and ResetDevice
	// restores it to factory state between devices, so — like the supply —
	// a device's scheme behavior is a pure function of the options.
	Scheme scheme.Factory

	// MeanOn and MinOn parameterize the default per-device supply, an
	// exponentially distributed on-time (the paper's harvesting
	// environment model). Zero values default to power.DefaultMeanOn and
	// 500 cycles.
	MeanOn uint64
	MinOn  uint64
	// Trace, when non-nil, replaces the statistical supply with a recorded
	// one: device i replays the shared recording starting at sample i
	// (power.Trace.Fork), so the fleet re-lives one measured environment
	// out of phase.
	Trace *power.Trace
	// Supply, when non-nil, overrides both: it must return an independent
	// power source for the given device, as a pure function of the device
	// ID (it is called from multiple workers concurrently, and determinism
	// requires the same device to always see the same supply).
	Supply func(device int) power.Source

	// NVFaultRate, when positive, gives every device an adversarial NV
	// substrate: each commit-protocol NV write independently tears with
	// this probability (a uniform random subset of its bits lands, then
	// power dies). Each device draws from its own power.FaultStream seeded
	// by (NVFaultSeed, device ID), so fault placement — like the supply —
	// is a pure function of the options and the telemetry stays
	// byte-identical at any worker count.
	NVFaultRate float64
	NVFaultSeed uint64

	// Intermittent-runtime knobs, forwarded per device (see
	// intermittent.Options); the cost model and the wall-cycle and
	// barren-boot bounds are the machine's defaults.
	PerfWatchdog    uint64
	ProgressDefault uint64
	// Verify runs the reference monitor inside every device — exhaustive
	// but slow; fleet-scale runs normally sample verification in separate
	// smaller runs instead.
	Verify bool
}

const defaultShardSize = 64

// DeviceSeed derives the supply seed for one device from the base seed: a
// splitmix64 mix, so consecutive device IDs land in uncorrelated RNG
// streams. Exported because anything that re-derives a single device's
// run (cli.Run.Replay, which writes clank-fleet's replay lines, and the
// perturbation meta-test) must use the exact same derivation.
func DeviceSeed(base uint64, device int) uint64 {
	x := base + 0x9E3779B97F4A7C15*uint64(device+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// supplyFor builds device dev's power source.
func (o *Options) supplyFor(dev int) power.Source {
	if o.Supply != nil {
		return o.Supply(dev)
	}
	if o.Trace != nil {
		return o.Trace.Fork(dev)
	}
	mean, floor := o.MeanOn, o.MinOn
	if mean == 0 {
		mean = power.DefaultMeanOn
	}
	if floor == 0 {
		floor = 500
	}
	return power.NewSupply(power.Exponential{Mean: mean, Min: floor}, int64(DeviceSeed(o.Seed, dev)))
}

// nvFaultTag decorrelates the fault-stream seed space from the supply seed
// space: a run with NVFaultSeed == Seed must not hand each device a fault
// stream in lockstep with its power supply.
const nvFaultTag = 0x746F726E // "torn"

// DeviceFaultSeed derives the torn-write stream seed for one device from
// the base NVFaultSeed, as DeviceSeed does for the supply seed.
func DeviceFaultSeed(base uint64, device int) uint64 {
	return DeviceSeed(base^nvFaultTag, device)
}

// nvFaultFor builds device dev's torn-write injector; nil when faults are
// disabled (a rate that is not positive, NaN included). The injector
// ignores the commit-write index — every protocol write faces the same
// per-write hazard — and must be installed fresh per device (it owns the
// device's private stream).
func (o *Options) nvFaultFor(dev int) func(int) (bool, uint32) {
	if !(o.NVFaultRate > 0) {
		return nil
	}
	fs := power.NewFaultStream(DeviceFaultSeed(o.NVFaultSeed, dev), o.NVFaultRate)
	return func(int) (bool, uint32) { return fs.Next() }
}

func (o *Options) intermittentOptions() intermittent.Options {
	return intermittent.Options{
		Config:          o.Config,
		Scheme:          o.Scheme,
		PerfWatchdog:    o.PerfWatchdog,
		ProgressDefault: o.ProgressDefault,
		Verify:          o.Verify,
	}
}

// Run simulates the fleet and folds the telemetry. The image is built into
// a frozen shared program once (one continuous warm-up execution); workers
// then pull fixed device-range shards through pool.Run, each reusing
// one shared-cache machine across its devices. A device whose run errors
// (wall-cycle bound, barren boots) is recorded in its DeviceResult rather
// than aborting the fleet; Run itself fails only on setup errors.
func Run(img *ccc.Image, o Options) (*Report, error) {
	if o.Devices <= 0 {
		return nil, fmt.Errorf("fleet: %d devices", o.Devices)
	}
	iopts := o.intermittentOptions()
	prog, err := intermittent.BuildSharedProgram(img, iopts)
	if err != nil {
		return nil, fmt.Errorf("fleet: building shared program: %w", err)
	}

	shardSize := o.ShardSize
	if shardSize <= 0 {
		shardSize = defaultShardSize
	}
	shards := (o.Devices + shardSize - 1) / shardSize

	results := make([]DeviceResult, o.Devices)
	var (
		mu       sync.Mutex
		setupErr error
	)
	start := time.Now()
	pool.Run(shards, o.Workers, func(next func() (int, bool)) {
		m, err := intermittent.NewMachineShared(img, iopts, prog)
		if err != nil {
			mu.Lock()
			setupErr = err
			mu.Unlock()
			return
		}
		for s, ok := next(); ok; s, ok = next() {
			for dev := s * shardSize; dev < min((s+1)*shardSize, o.Devices); dev++ {
				results[dev] = runDevice(m, dev, o.supplyFor(dev), o.nvFaultFor(dev), prog.Outputs())
			}
		}
	})
	elapsed := time.Since(start)
	if setupErr != nil {
		return nil, fmt.Errorf("fleet: worker setup: %w", setupErr)
	}

	return &Report{
		Agg:     aggregate(results),
		Host:    hostStats(results, pool.Workers(o.Workers, o.Devices), elapsed),
		Results: results,
	}, nil
}

// runDevice simulates one device on a (reused) machine. The fault injector
// (nil = pristine NV) is installed unconditionally so a machine reused from
// a faulted device never leaks its predecessor's stream. want is the
// image's continuous-power output sequence (the shared program's warm-up
// run), against which the device's committed outputs are checked.
func runDevice(m *intermittent.Machine, dev int, supply power.Source, nvFault func(int) (bool, uint32), want []uint32) DeviceResult {
	t0 := time.Now()
	m.ResetDevice(supply)
	m.SetNVFault(nvFault)
	st, err := m.Run()
	r := DeviceResult{
		Device:           dev,
		Completed:        st.Completed,
		Boots:            st.Restarts,
		Checkpoints:      st.Checkpoints,
		BarrenBoots:      st.BarrenBoots,
		TornCommits:      st.TornCommits,
		RecoveredCommits: st.RecoveredCommits,
		TornWrites:       st.TornWrites,
		DetectedCorrupt:  st.DetectedCorrupt,
		DegradedBoots:    st.DegradedBoots,
		CommitWrites:     st.CommitWrites,
		Outputs:          len(st.Outputs),
		OutputsMatch:     st.Completed && slices.Equal(st.Outputs, want),
		UsefulCycles:     st.UsefulCycles,
		WallCycles:       st.WallCycles,
		CkptCycles:       st.CkptCycles,
		RestartCycles:    st.RestartCycles,
		ReexecCycles:     st.ReexecCycles,
		Insns:            m.Insns(),
		HostNS:           time.Since(t0).Nanoseconds(),
	}
	if st.WallCycles > 0 {
		r.ProgressPermille = st.UsefulCycles * 1000 / st.WallCycles
	}
	if st.UsefulCycles > 0 {
		r.OverheadPermille = (st.WallCycles - st.UsefulCycles) * 1000 / st.UsefulCycles
	}
	if err != nil {
		r.Err = err.Error()
	}
	return r
}
