// Command perfbench is the repository's benchmark: one program that runs
// fixed, seeded workloads through the simulator's public APIs, checks every
// output, and prints each metric by name with its unit.
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	fleet  fleet.Run of Clank devices on the crc and aes images; one op is one device
//	harsh  verified single-device runs under a harsh supply and torn NV writes,
//	       schemes clank/alpaca/dica on fft/sha/crc; one op is one run
//	sweep  policysim.Sweep of the clank-explore grid and the Table 2 configs
//	       over the crc/sha/dijkstra traces; one op is one (config x trace) replay
//
// Every end-to-end time is CPU time, scaled to a reference host speed by a
// calibration kernel sampled after every timed unit (cpu.go, calib.go), so
// the figures hold still on a shared host whose speed comes and goes.
//
// With --trace 0 the run measures the end-to-end metrics with tracing off.
// With --trace 1 it alternates untraced and traced slices of the same
// workload, records a span around every public call the benchmark makes,
// runs the per-layer probes, and prints the per-layer metrics. Either way
// the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the program first):
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 32 --trace 0
//	bash perfbench/run.sh --workload harsh --seed 1 --seconds 32 --trace 1 --cpuprofile cpu.prof
//	bash perfbench/run.sh --workload all --seed 1 --seconds 32 --trace 0
//
// BENCHMARK.json at the repository root lists the metrics and workloads;
// layers.json beside this file maps each per-layer metric to the end-to-end
// metric and workloads it should move. The smoke tests keep the printed
// metrics and both files in step.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every size (chunk, grid, repetitions) so the smoke test
	// can run each workload in a few seconds.
	tiny bool
	// spansPath receives the traced run's spans (trace mode only).
	spansPath string
	// corruptOp, when >= 0, corrupts the output of that op before it is
	// checked: the smoke test's proof that a wrong output counts as failed.
	corruptOp int
}

// result is what one invocation prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var cpuProfile string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames()+", or all (each prints its own result line)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 32, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&cfg.spansPath, "spans", "", "file for the traced run's spans (default .bench_build/spans-<workload>-<seed>.json)")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.corruptOp = -1

	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = allWorkloads
	}
	for _, name := range names {
		cfg.workload = name
		if err := run(cfg, os.Stdout); err != nil {
			pprof.StopCPUProfile()
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one invocation and prints the report, ending with the result
// line.
func run(cfg config, out io.Writer) error {
	// Set-ups and probes are timed in this thread's CPU time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds < 0 {
		return errors.New("--seconds must not be negative")
	}
	host := fingerprint()
	fmt.Fprintf(out, "host: cpu %q, %s, nproc %d, GOMAXPROCS %d, calibration %.4f ns/step\n",
		host.CPU, host.Go, host.NumCPU, host.GOMAXPROCS, host.CalibrationNS)
	fmt.Fprintf(out, "workload %s, seed %d, %.3gs measured, trace %v, %d workers\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, workers())

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		if cfg.spansPath == "" {
			cfg.spansPath = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		}
	}
	b := &bench{cfg: cfg, wl: wl, out: out, overhead: map[int]float64{}, calib: []float64{host.CalibrationNS}}
	if err := b.setup(tr); err != nil {
		return err
	}
	// The window is cut into slices with a set-up timed between each two,
	// so setup_s samples the whole run rather than its first second. In a
	// traced run the slices alternate untraced and traced, so drift on the
	// host lands on both sides of trace_overhead_frac alike.
	n := runSlices
	if cfg.tiny {
		n = 2
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	var used time.Duration
	for k := 0; k < n; k++ {
		t, ktr := &b.plain, (*tracer)(nil)
		if cfg.trace && k%2 == 1 {
			t, ktr = &b.traced, tr
		}
		// Slices run whole cycles, so one may overshoot its share of the
		// window; the next ones then run no ops until the time is made up,
		// except that each tally gets at least one cycle. The last slice
		// also completes the claims sim_overhead_pct averages over.
		if k == n-1 {
			b.minID = b.overheadClaims()
		}
		if d := window*time.Duration(k+1)/time.Duration(n) - used; d > 0 || t.units == 0 || b.nextID < b.minID {
			used += b.segment(d, ktr, t)
		}
		if k < n-1 {
			if err := b.setup(tr); err != nil {
				return err
			}
		}
	}
	host.CalibrationNS = median(b.calib)
	fmt.Fprintf(out, "calibration over the run: %.4f ns/step, median of %d samples; each timed unit is scaled by %g ns over the sample after it\n",
		host.CalibrationNS, len(b.calib), calibRefNS)
	if err := b.verify(); err != nil {
		return err
	}

	res := result{Attempted: b.attempted, Failed: b.failed}
	res.Correct = b.failed == 0
	if cfg.trace {
		pr, err := b.probe(tr)
		if err != nil {
			return err
		}
		res.Metrics = b.layerMetrics(pr, host)
		if err := writeSpans(cfg.spansPath, cfg, host, tr); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), cfg.spansPath)
		printSelfTimes(out, tr)
	} else {
		res.Metrics = b.endToEndMetrics()
	}
	b.printReport(res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

var allWorkloads = []string{"fleet", "harsh", "sweep"}

// workers is the closed batch's concurrency: at most two goroutines, and
// never more than the host has CPUs.
func workers() int { return min(2, runtime.NumCPU()) }
