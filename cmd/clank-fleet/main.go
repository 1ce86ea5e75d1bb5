// Command clank-fleet simulates a population of intermittently powered
// devices all running one program: the image is compiled and frozen into a
// shared decode+fusion cache once, then thousands of devices — each with
// its own non-volatile memory, Clank detector state, and independently
// seeded (or trace-replayed) power supply — execute it in parallel across
// worker goroutines. The aggregate telemetry is deterministic: the same
// image, seed, and device count produce byte-identical results and the
// same aggregate hash at any worker count.
//
// Usage:
//
//	clank-fleet -bench crc -devices 10000
//	clank-fleet [flags] prog.c
//	clank-fleet -bench crc -devices 200 -cpuprofile cpu.prof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/fleet"
	"repro/internal/mibench"
	"repro/internal/power"
	"repro/internal/scheme"
)

func main() {
	benchName := flag.String("bench", "", "run a MiBench2 benchmark by name instead of a source file")
	devices := flag.Int("devices", 10000, "number of devices in the fleet")
	workers := flag.Int("workers", 0, "simulation goroutines (0 = GOMAXPROCS); never affects results")
	seed := flag.Uint64("seed", 1, "base seed; each device derives its supply seed from (seed, device)")
	rf := flag.Int("rf", 16, "Read-first Buffer entries")
	wf := flag.Int("wf", 8, "Write-first Buffer entries")
	wb := flag.Int("wb", 4, "Write-back Buffer entries")
	ap := flag.Int("ap", 4, "Address Prefix Buffer entries (0 = none)")
	meanOn := flag.Uint64("mean-on", power.DefaultMeanOn, "average power-on time in cycles")
	minOn := flag.Uint64("min-on", 500, "minimum power-on time in cycles")
	traceFile := flag.String("power-trace", "", "replay a recorded trace: device i starts at sample i")
	watchdog := flag.Uint64("watchdog", 0, "Performance Watchdog load value (0 = off)")
	nvFaultRate := flag.Float64("nv-fault-rate", 0, "per-NV-write torn-write probability (0 = pristine cells)")
	nvFaultSeed := flag.Uint64("nv-fault-seed", 1, "base seed for per-device torn-write streams")
	opts := flag.String("opts", "all", "policy optimizations: all or none")
	schemeSpec := flag.String("scheme", "clank", "runtime scheme every device runs: clank, alpaca[:tasklen], dica[:interval]")
	exempt := flag.Bool("exempt", false, "profile Program Idempotent PCs first (requires -bench)")
	verify := flag.Bool("verify", false, "run the reference monitor inside every device (slow)")
	outJSONL := flag.String("out", "", "write per-device results as JSON lines to this file")
	outCSV := flag.String("csv", "", "write per-device results as CSV to this file")
	jsonOut := flag.Bool("json", false, "print the aggregate+host report as JSON instead of text")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "clank-fleet:", err)
			}
		}
		defer stopProfile()
	}

	optSet, err := clank.ParseOpts(*opts)
	if err != nil {
		fatal(err)
	}
	cfg := clank.Config{ReadFirst: *rf, WriteFirst: *wf, WriteBack: *wb, AddrPrefix: *ap, PrefixLowBits: 6, Opts: optSet}
	fac, err := scheme.Parse(*schemeSpec)
	if err != nil {
		fatal(err)
	}

	var img *ccc.Image
	var progName string
	switch {
	case *benchName != "":
		b, ok := mibench.ByName(*benchName)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q", *benchName))
		}
		progName = b.Name
		if *exempt {
			c, err := mibench.Build(b)
			if err != nil {
				fatal(err)
			}
			img = c.Image
			cfg.ExemptPCs = c.ExemptPCs
		} else {
			var err error
			img, err = ccc.Compile(b.Source)
			if err != nil {
				fatal(err)
			}
		}
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		progName = flag.Arg(0)
		img, err = ccc.Compile(string(data))
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: clank-fleet [flags] prog.c | -bench NAME")
		os.Exit(2)
	}
	if *exempt && *benchName == "" {
		fatal(fmt.Errorf("-exempt requires -bench (profiling needs the benchmark's continuous trace)"))
	}

	fo := fleet.Options{
		Devices:         *devices,
		Workers:         *workers,
		Seed:            *seed,
		Config:          cfg,
		Scheme:          fac,
		MeanOn:          *meanOn,
		MinOn:           *minOn,
		PerfWatchdog:    *watchdog,
		NVFaultRate:     *nvFaultRate,
		NVFaultSeed:     *nvFaultSeed,
		ProgressDefault: *meanOn / 4,
		Verify:          *verify,
	}
	supplyDesc := fmt.Sprintf("exponential on-time (mean %d, min %d cycles), base seed %d", *meanOn, *minOn, *seed)
	if *traceFile != "" {
		tr, err := power.LoadTraceFile(*traceFile)
		if err != nil {
			fatal(err)
		}
		fo.Trace = tr
		fo.ProgressDefault = tr.Mean() / 4
		supplyDesc = fmt.Sprintf("trace %s (%d samples, mean on-time %d cycles), device-staggered",
			*traceFile, tr.Len(), tr.Mean())
	}

	rep, err := fleet.Run(img, fo)
	if err != nil {
		fatal(err)
	}

	if *outJSONL != "" {
		if err := writeSink(*outJSONL, rep, fleet.WriteJSONL); err != nil {
			fatal(err)
		}
	}
	if *outCSV != "" {
		if err := writeSink(*outCSV, rep, fleet.WriteCSV); err != nil {
			fatal(err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		exitOnMismatch(&rep.Agg)
		return
	}

	a := &rep.Agg
	fmt.Printf("fleet: %d devices of %s, scheme %s, config %s (%d buffer bits)\n",
		a.Devices, progName, fac.Name(), cfg, cfg.BufferBits())
	fmt.Printf("supply: %s\n", supplyDesc)
	fmt.Printf("completed %d/%d devices (%d errors), %d boots, %d checkpoints, %d barren boots\n",
		a.Completed, a.Devices, a.Errors, a.Boots, a.Checkpoints, a.BarrenBoots)
	fmt.Printf("commits: %d torn, %d recovered, %d writes; %d outputs\n",
		a.TornCommits, a.RecoveredCommits, a.CommitWrites, a.Outputs)
	fmt.Printf("outputs: %d/%d devices differ from the continuous run\n", a.OutputMismatches, a.Devices)
	if *nvFaultRate > 0 {
		fmt.Printf("nv faults (rate %g): %d torn writes, %d corrupt records detected, %d degraded boots\n",
			*nvFaultRate, a.TornWrites, a.DetectedCorrupt, a.DegradedBoots)
	}
	fmt.Printf("forward progress (permille): p50 %d  p90 %d  p99 %d\n",
		a.ProgressPermille.P50, a.ProgressPermille.P90, a.ProgressPermille.P99)
	fmt.Printf("overhead (permille):         p50 %d  p90 %d  p99 %d\n",
		a.OverheadPermille.P50, a.OverheadPermille.P90, a.OverheadPermille.P99)
	fmt.Printf("aggregate hash: %s (worker-count invariant)\n", a.Hash)
	h := &rep.Host
	fmt.Printf("host: %d workers, %.2fs, %.0f devices/sec, %.1f ns/insn (p50 %.1f, p99 %.1f)\n",
		h.Workers, float64(h.ElapsedNS)/1e9, h.DevicesPerSec, h.NsPerInsn, h.NsPerInsnP50, h.NsPerInsnP99)
	exitOnMismatch(a)
}

// exitOnMismatch fails the run, after its report is out, when any device's
// outputs differ from the continuous run's — the check clank-sim makes for
// a single device.
func exitOnMismatch(a *fleet.Aggregate) {
	if a.OutputMismatches > 0 {
		fatal(fmt.Errorf("outputs of %d/%d devices differ from the continuous run", a.OutputMismatches, a.Devices))
	}
}

func writeSink(path string, rep *fleet.Report, write func(w io.Writer, results []fleet.DeviceResult) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, rep.Results); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stopProfile ends the -cpuprofile recording. fatal calls it too, so a run
// that fails still leaves a complete profile.
var stopProfile = func() {}

func fatal(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "clank-fleet:", err)
	os.Exit(1)
}
