package experiments

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/clank"
	"repro/internal/policysim"
)

// PowerSweepPoint is the minimum achievable overhead at one mean
// power-on time.
type PowerSweepPoint struct {
	MeanOn      uint64
	Watchdog    uint64 // analytic optimum used
	Ckpt        float64
	Reexec      float64
	Combined    float64
	Theoretical float64 // sqrt(2*C/meanOn): the paper's section 7.4 relation
}

// PowerSweepData extends the paper's section 7.4 claim — "the minimum
// possible run-time overhead for Clank, regardless of buffer size, is
// directly related to the average power-on time" — into a measured curve:
// with infinite buffers and the analytically optimal Performance Watchdog
// at each mean on-time, the combined overhead should track
// sqrt(2*C/T_on) (checkpoint overhead C/W* plus expected re-execution
// W*/(2*T_on) at W* = sqrt(2*C*T_on)).
type PowerSweepData struct {
	Points []PowerSweepPoint
}

// PowerSweep measures the minimum overhead across mean power-on times.
func PowerSweep(o Options) (*PowerSweepData, error) {
	o = o.withDefaults()
	suite, err := BuildSuite()
	if err != nil {
		return nil, err
	}
	means := []uint64{25_000, 50_000, 100_000, 200_000, 400_000}
	if o.Quick {
		means = []uint64{50_000, 100_000, 200_000}
	}
	cfg := clank.Config{
		ReadFirst:  clank.Unlimited,
		WriteFirst: clank.Unlimited,
		WriteBack:  clank.Unlimited,
		Opts:       clank.OptAll &^ clank.OptIgnoreText,
	}
	ckptCost := clank.DefaultCosts().CheckpointBase

	d := &PowerSweepData{Points: make([]PowerSweepPoint, len(means))}
	var mu sync.Mutex
	err = parallelFor(len(means), func(mi int) error {
		meanOn := means[mi]
		wdt := OptimalPerfWatchdog(ckptCost, meanOn)
		mo := Options{MeanOn: meanOn, Verify: o.Verify, Seeds: o.Seeds}
		var ckpt, reexec, comb float64
		n := 0
		for _, c := range suite {
			if c.Cycles < meanOn {
				continue // watchdog study targets long-running programs
			}
			// All seeds replay this benchmark in one batched pass.
			jobs := make([]policysim.Job, len(o.Seeds))
			for si, seed := range o.Seeds {
				jobs[si] = watchdogJob(c, cfg, mo, newSupply(meanOn, seed), wdt)
			}
			results, err := batchRun(c, jobs)
			if err != nil {
				return fmt.Errorf("power sweep %d: %w", meanOn, err)
			}
			for _, res := range results {
				useful := float64(res.UsefulCycles)
				ckpt += float64(res.CkptCycles+res.RestartCycles) / useful
				reexec += float64(res.ReexecCycles) / useful
				comb += res.Overhead()
				n++
			}
		}
		if n == 0 {
			return fmt.Errorf("power sweep: no long-running benchmarks at mean %d", meanOn)
		}
		theo := 0.0
		if meanOn > 0 {
			theo = math.Sqrt(2 * float64(ckptCost) / float64(meanOn))
		}
		mu.Lock()
		d.Points[mi] = PowerSweepPoint{
			MeanOn:      meanOn,
			Watchdog:    wdt,
			Ckpt:        ckpt / float64(n),
			Reexec:      reexec / float64(n),
			Combined:    comb / float64(n),
			Theoretical: theo,
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Format renders the sweep.
func (d *PowerSweepData) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Power sweep: minimum overhead vs mean power-on time (infinite buffers, optimal watchdog)\n")
	fmt.Fprintf(&b, "%10s %10s %12s %14s %10s %12s\n",
		"Mean on", "Watchdog", "Checkpoint", "Re-execution", "Combined", "sqrt(2C/T)")
	for _, p := range d.Points {
		fmt.Fprintf(&b, "%10d %10d %11.2f%% %13.2f%% %9.2f%% %11.2f%%\n",
			p.MeanOn, p.Watchdog, p.Ckpt*100, p.Reexec*100, p.Combined*100, p.Theoretical*100)
	}
	return b.String()
}
