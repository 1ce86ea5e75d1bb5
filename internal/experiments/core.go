// Package experiments regenerates every table and figure of the paper's
// evaluation (section 7). Each experiment returns a data structure with a
// Format method producing the table the paper prints; cmd/clank-experiments
// and the top-level benchmarks drive them.
package experiments

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/clank"
	"repro/internal/mibench"
	"repro/internal/policysim"
	"repro/internal/pool"
	"repro/internal/power"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks the configuration sweeps (used by `go test -bench`);
	// the full sweeps are the cmd/clank-experiments defaults.
	Quick bool
	// MeanOn is the average power-on time in cycles (default: the
	// paper's 100 ms at the 1 MHz model clock).
	MeanOn uint64
	// Seeds are the power-supply seeds averaged over for experiments
	// with power cycling.
	Seeds []int64
	// Verify runs the reference monitor inside every simulation (the
	// paper dynamically verifies every experimental trial). On by
	// default; benches may disable it for throughput.
	Verify bool
}

// withDefaults fills in unset options.
func (o Options) withDefaults() Options {
	if o.MeanOn == 0 {
		o.MeanOn = power.DefaultMeanOn
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{11, 23, 47}
	}
	return o
}

// OptimalPerfWatchdog computes the Performance Watchdog load value that
// balances checkpoint and re-execution overhead in the ideal
// no-program-checkpoints case (paper section 3.1.4/7.4): checkpoint
// overhead per cycle is C/W and expected re-execution is W/(2*meanOn), so
// the optimum is W* = sqrt(2*C*meanOn).
func OptimalPerfWatchdog(ckptCost, meanOn uint64) uint64 {
	return uint64(math.Sqrt(2 * float64(ckptCost) * float64(meanOn)))
}

// NamedConfig pairs the paper's shorthand with a configuration.
type NamedConfig struct {
	Name         string
	Config       clank.Config
	Compiler     bool // apply Program Idempotent exemptions
	PerfWatchdog bool // enable the optimally-seeded Performance Watchdog
}

// Table2Configs are the paper's five evaluation configurations (Table 2 /
// Figure 7): comma-separated Read-first, Write-first, Write-back, and
// Address Prefix entry counts.
func Table2Configs() []NamedConfig {
	return []NamedConfig{
		{Name: "16,0,0,0", Config: clank.Config{ReadFirst: 16, Opts: clank.OptAll}},
		{Name: "8,8,0,0", Config: clank.Config{ReadFirst: 8, WriteFirst: 8, Opts: clank.OptAll}},
		{Name: "8,4,2,0", Config: clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll}},
		{Name: "16,8,4,4", Config: clank.Config{ReadFirst: 16, WriteFirst: 8, WriteBack: 4,
			AddrPrefix: 4, PrefixLowBits: 6, Opts: clank.OptAll}},
		{Name: "16,8,4,4 (+C+WDT)", Config: clank.Config{ReadFirst: 16, WriteFirst: 8, WriteBack: 4,
			AddrPrefix: 4, PrefixLowBits: 6, Opts: clank.OptAll}, Compiler: true, PerfWatchdog: true},
	}
}

// BuildSuite compiles and traces all 23 benchmarks (cached). The error is
// the lowest-index build failure.
func BuildSuite() ([]*mibench.Compiled, error) {
	benches := mibench.All()
	out := make([]*mibench.Compiled, len(benches))
	err := parallelFor(len(benches), func(i int) (err error) {
		out[i], err = mibench.Build(benches[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ExploreGrid is clank-explore's buffer grid: Read-first sizes 1..maxRF in
// powers of two, each without and with a half-size Write-first Buffer,
// crossed with 0/1/2/4 Write-back entries and no or a 4-entry Address
// Prefix Buffer, all with every optimization, the given TEXT bounds and
// the given Program Idempotent exemptions (96 configurations at maxRF 32).
func ExploreGrid(maxRF int, textStart, textEnd uint32, exempt map[uint32]bool) []clank.Config {
	var cfgs []clank.Config
	for rf := 1; rf <= maxRF; rf *= 2 {
		for _, wf := range []int{0, rf / 2} {
			for _, wb := range []int{0, 1, 2, 4} {
				for _, ap := range []int{0, 4} {
					cfg := clank.Config{ReadFirst: rf, WriteFirst: wf, WriteBack: wb,
						AddrPrefix: ap, Opts: clank.OptAll,
						TextStart: textStart, TextEnd: textEnd, ExemptPCs: exempt}
					if ap > 0 {
						cfg.PrefixLowBits = 6
					}
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	return cfgs
}

// batchCache maps each compiled benchmark to its columnar trace, so every
// experiment shares one BatchTrace (and its cached classification
// columns) per benchmark.
var batchCache sync.Map // *mibench.Compiled -> *policysim.BatchTrace

// batchFor returns the benchmark's cached columnar trace.
func batchFor(c *mibench.Compiled) *policysim.BatchTrace {
	if v, ok := batchCache.Load(c); ok {
		return v.(*policysim.BatchTrace)
	}
	tr := policysim.NewBatchTrace(c.Trace, c.Cycles, c.Image.TextStart, c.Image.TextEnd)
	v, _ := batchCache.LoadOrStore(c, tr)
	return v.(*policysim.BatchTrace)
}

// batchRun replays a job set against the benchmark's columnar trace in
// one batched pass, attributing the first failure to its configuration
// and benchmark.
func batchRun(c *mibench.Compiled, jobs []policysim.Job) ([]policysim.Result, error) {
	b, err := policysim.NewBatch(batchFor(c), jobs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.Bench.Name, err)
	}
	res := make([]policysim.Result, len(jobs))
	errs := make([]error, len(jobs))
	b.Run(res, errs)
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("config %s on %s: %w", jobs[i].Config, c.Bench.Name, e)
		}
	}
	return res, nil
}

// jobFor builds the batch job for one benchmark under one named
// configuration, wiring in the image's TEXT bounds and, when requested,
// the profiler's exemptions and the optimal Performance Watchdog.
func jobFor(c *mibench.Compiled, nc NamedConfig, o Options, supply power.Source) policysim.Job {
	cfg := nc.Config
	cfg.TextStart, cfg.TextEnd = c.Image.TextStart, c.Image.TextEnd
	if nc.Compiler {
		cfg.ExemptPCs = c.ExemptPCs
	}
	po := policysim.Options{
		Supply:          supply,
		ProgressDefault: o.MeanOn / 4,
		Verify:          o.Verify,
	}
	if nc.PerfWatchdog {
		po.PerfWatchdog = OptimalPerfWatchdog(clank.DefaultCosts().CheckpointBase, o.MeanOn)
	} else {
		// Deployment guidance from paper section 3.1.4: sections must
		// stay well below the power-cycle length or every boot is spent
		// re-executing a section that can never finish. Configurations
		// without the tuned Performance Watchdog still ship with a
		// conservative one at a quarter of the mean on-time.
		po.PerfWatchdog = o.MeanOn / 4
	}
	return policysim.Job{Config: cfg, Opts: po}
}

// contJobFor builds a continuous-power job for one raw configuration on a
// benchmark (the Figure 5/6 design-space sweeps; checkpoint overhead is
// power-timing invariant, so these replay on the batch engine's lockstep
// core).
func contJobFor(c *mibench.Compiled, cfg clank.Config, compiler, verify bool) policysim.Job {
	cfg.TextStart, cfg.TextEnd = c.Image.TextStart, c.Image.TextEnd
	if compiler {
		cfg.ExemptPCs = c.ExemptPCs
	}
	return policysim.Job{Config: cfg, Opts: policysim.Options{Verify: verify}}
}

// watchdogJob is jobFor with an explicit Performance Watchdog load value
// (the Figure 8 and power sweeps).
func watchdogJob(c *mibench.Compiled, cfg clank.Config, o Options, supply power.Source, watchdog uint64) policysim.Job {
	cfg.TextStart, cfg.TextEnd = c.Image.TextStart, c.Image.TextEnd
	return policysim.Job{Config: cfg, Opts: policysim.Options{
		Supply:          supply,
		ProgressDefault: o.MeanOn / 4,
		PerfWatchdog:    watchdog,
		Verify:          o.Verify,
	}}
}

// newSupply builds the experiments' standard harvested-power source. Each
// batch job gets a private instance so sweep results are independent of
// replay order.
func newSupply(meanOn uint64, seed int64) power.Source {
	return power.NewSupply(power.Exponential{Mean: meanOn, Min: 500}, seed)
}

// poweredRows replays every named configuration at every seed on one
// benchmark as a single batch, returning per-configuration (last seed's
// Result, mean overhead across seeds).
func poweredRows(c *mibench.Compiled, configs []NamedConfig, o Options) ([]policysim.Result, []float64, error) {
	jobs := make([]policysim.Job, 0, len(configs)*len(o.Seeds))
	for _, nc := range configs {
		for _, seed := range o.Seeds {
			jobs = append(jobs, jobFor(c, nc, o, newSupply(o.MeanOn, seed)))
		}
	}
	all, err := batchRun(c, jobs)
	if err != nil {
		return nil, nil, err
	}
	last := make([]policysim.Result, len(configs))
	avg := make([]float64, len(configs))
	for ci := range configs {
		var sum float64
		for si := range o.Seeds {
			r := all[ci*len(o.Seeds)+si]
			sum += r.Overhead()
			last[ci] = r
		}
		avg[ci] = sum / float64(len(o.Seeds))
	}
	return last, avg, nil
}

// simPowered averages total overhead across the option seeds.
func simPowered(c *mibench.Compiled, nc NamedConfig, o Options) (avg policysim.Result, overhead float64, err error) {
	last, avgs, err := poweredRows(c, []NamedConfig{nc}, o)
	if err != nil {
		return policysim.Result{}, 0, err
	}
	return last[0], avgs[0], nil
}

// parallelFor runs fn(i) for i in [0, n) on all cores and starts no item
// after the first error. It returns the lowest-index error: indices are
// handed out in increasing order and every claimed item runs, so each item
// below a failing one has run.
func parallelFor(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var failed atomic.Bool
	pool.Run(n, 0, func(next func() (int, bool)) {
		for !failed.Load() {
			i, ok := next()
			if !ok {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Point is one sample of a hardware-size-vs-overhead tradeoff curve.
type Point struct {
	Bits     int
	Overhead float64
	Config   clank.Config
}

// paretoFrontier keeps the lower envelope: for ascending bits, strictly
// decreasing overhead.
func paretoFrontier(pts []Point) []Point {
	// Sort by bits then overhead (insertion sort: the sets are small).
	sorted := append([]Point(nil), pts...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && less(sorted[j], sorted[j-1]); j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var out []Point
	best := math.Inf(1)
	for _, p := range sorted {
		if p.Overhead < best {
			best = p.Overhead
			out = append(out, p)
		}
	}
	return out
}

func less(a, b Point) bool {
	if a.Bits != b.Bits {
		return a.Bits < b.Bits
	}
	return a.Overhead < b.Overhead
}
