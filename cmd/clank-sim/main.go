// Command clank-sim runs a program intermittently: it compiles the source
// (or picks a named MiBench2 benchmark), attaches the Clank hardware,
// executes across random power failures, dynamically verifies idempotence
// with the reference monitor, and compares the outputs with a continuous
// run.
//
// Usage:
//
//	clank-sim [flags] prog.c
//	clank-sim [flags] -bench fft
//	clank-sim -bench crc -cpuprofile cpu.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/intermittent"
	"repro/internal/mibench"
	"repro/internal/power"
	"repro/internal/scheme"
)

func main() {
	benchName := flag.String("bench", "", "run a MiBench2 benchmark by name instead of a source file")
	rf := flag.Int("rf", 16, "Read-first Buffer entries")
	wf := flag.Int("wf", 8, "Write-first Buffer entries")
	wb := flag.Int("wb", 4, "Write-back Buffer entries")
	ap := flag.Int("ap", 4, "Address Prefix Buffer entries (0 = none)")
	meanOn := flag.Uint64("mean-on", power.DefaultMeanOn, "average power-on time in cycles")
	seed := flag.Int64("seed", 1, "power-supply seed")
	traceFile := flag.String("power-trace", "", "replay recorded on-times from a trace file instead of the random supply")
	watchdog := flag.Uint64("watchdog", 0, "Performance Watchdog load value (0 = off)")
	nvFaultRate := flag.Float64("nv-fault-rate", 0, "per-NV-write torn-write probability (0 = pristine cells)")
	nvFaultSeed := flag.Uint64("nv-fault-seed", 1, "torn-write stream seed")
	opts := flag.String("opts", "all", "policy optimizations: all or none")
	schemeSpec := flag.String("scheme", "clank", "runtime scheme: clank, alpaca[:tasklen], dica[:interval]")
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
				fmt.Fprintln(os.Stderr, "clank-sim:", err)
			}
		}
		defer stopProfile()
	}

	fac, err := scheme.Parse(*schemeSpec)
	if err != nil {
		fatal(err)
	}

	var src string
	switch {
	case *benchName != "":
		b, ok := mibench.ByName(*benchName)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q", *benchName))
		}
		src = b.Source
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src = string(data)
	default:
		fmt.Fprintln(os.Stderr, "usage: clank-sim [flags] prog.c | -bench NAME")
		os.Exit(2)
	}

	img, err := ccc.Compile(src)
	if err != nil {
		fatal(err)
	}

	// Continuous baseline.
	cont := armsim.NewMachine()
	if err := cont.Boot(img.Bytes); err != nil {
		fatal(err)
	}
	baseCycles, err := cont.Run(2_000_000_000)
	if err != nil {
		fatal(err)
	}

	cfg := clank.Config{ReadFirst: *rf, WriteFirst: *wf, WriteBack: *wb, AddrPrefix: *ap, PrefixLowBits: 6}
	if *opts == "all" {
		cfg.Opts = clank.OptAll
	}

	// Power environment: a seeded random model by default, or a recorded
	// trace replayed boot for boot.
	var supply power.Source = power.NewSupply(power.Exponential{Mean: *meanOn, Min: 500}, *seed)
	supplyDesc := fmt.Sprintf("mean on-time %d cycles, seed %d", *meanOn, *seed)
	progDefault := *meanOn / 4
	if *traceFile != "" {
		tr, err := power.LoadTraceFile(*traceFile)
		if err != nil {
			fatal(err)
		}
		supply = tr
		supplyDesc = fmt.Sprintf("trace %s (%d boots recorded, mean on-time %d cycles)",
			*traceFile, tr.Len(), tr.Mean())
		progDefault = tr.Mean() / 4
	}

	m, err := intermittent.NewMachine(img, intermittent.Options{
		Config:          cfg,
		Scheme:          fac,
		Supply:          supply,
		PerfWatchdog:    *watchdog,
		ProgressDefault: progDefault,
		Verify:          true,
	})
	if err != nil {
		fatal(err)
	}
	if *nvFaultRate > 0 {
		fs := power.NewFaultStream(*nvFaultSeed, *nvFaultRate)
		m.SetNVFault(func(int) (bool, uint32) { return fs.Next() })
	}
	st, err := m.Run()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("scheme %s, config %s (%d buffer bits), %s\n", fac.Name(), cfg, cfg.BufferBits(), supplyDesc)
	fmt.Printf("continuous run:    %d cycles, %d outputs\n", baseCycles, len(cont.Mem.Outputs))
	fmt.Printf("intermittent run:  %d wall cycles across %d power cycles\n", st.WallCycles, st.Restarts+1)
	fmt.Printf("  checkpoints:     %d (%v)\n", st.Checkpoints, st.Reasons)
	fmt.Printf("  checkpoint cost: %d cycles (%.2f%%)\n", st.CkptCycles, pct(st.CkptCycles, st.UsefulCycles))
	fmt.Printf("  re-execution:    %d cycles (%.2f%%)\n", st.ReexecCycles, pct(st.ReexecCycles, st.UsefulCycles))
	fmt.Printf("  restart cost:    %d cycles (%.2f%%)\n", st.RestartCycles, pct(st.RestartCycles, st.UsefulCycles))
	fmt.Printf("  total overhead:  %.2f%% (x%.3f baseline)\n", st.Overhead()*100, 1+st.Overhead())
	if *nvFaultRate > 0 {
		fmt.Printf("  nv faults:       %d torn writes, %d corrupt records detected, %d recovered commits, %d degraded boots\n",
			st.TornWrites, st.DetectedCorrupt, st.RecoveredCommits, st.DegradedBoots)
	}

	if err := compareOutputs(cont.Mem.Outputs, st.Outputs); err != nil {
		fatal(fmt.Errorf("outputs differ from the continuous run: %w", err))
	}
	fmt.Println("outputs match the continuous run; dynamic verification passed")
}

// compareOutputs reports how got, the intermittent run's outputs, differs
// from want, the continuous run's, or returns nil when they are identical.
// The output-commit watermark means a power failure never replays an
// emission, so a duplicated, missing or changed output is a wrong result.
func compareOutputs(want, got []uint32) error {
	for i := range min(len(want), len(got)) {
		if got[i] != want[i] {
			return fmt.Errorf("output[%d] is %d (%#x), want %d (%#x)", i, got[i], got[i], want[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	return nil
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den) * 100
}

// stopProfile ends the -cpuprofile recording. fatal calls it too, so a run
// that fails still leaves a complete profile.
var stopProfile = func() {}

func fatal(err error) {
	stopProfile()
	fmt.Fprintln(os.Stderr, "clank-sim:", err)
	os.Exit(1)
}
