// Command clank-sim runs a program intermittently: it compiles the source
// (or picks a named MiBench2 benchmark), attaches the Clank hardware,
// executes across random power failures, dynamically verifies idempotence
// with the reference monitor, and compares the outputs with a continuous
// run. Its flags are the shared run description (internal/cli), so a
// clank-fleet replay line runs here as it stands.
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

	"repro/internal/armsim"
	"repro/internal/cli"
)

func main() {
	run := cli.Default()
	run.Start()
	defer cli.StopProfile()

	img, _, err := run.Program(flag.Args())
	if err != nil {
		cli.Fatal(err)
	}

	// Continuous baseline.
	cont := armsim.NewMachine()
	if err := cont.Boot(img.Bytes); err != nil {
		cli.Fatal(err)
	}
	baseCycles, err := cont.Run(2_000_000_000)
	if err != nil {
		cli.Fatal(err)
	}

	m, err := run.Machine(img)
	if err != nil {
		cli.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		cli.Fatal(err)
	}

	supplyDesc := fmt.Sprintf("mean on-time %d cycles, seed %d", run.MeanOn, run.Seed)
	if run.Trace != nil {
		supplyDesc = fmt.Sprintf("trace %s (%d boots recorded, mean on-time %d cycles)",
			run.PowerTrace, run.Trace.Len(), run.Trace.Mean())
	}
	fmt.Printf("scheme %s, config %s (%d buffer bits), %s\n", run.Scheme.Name(), run.Config, run.Config.BufferBits(), supplyDesc)
	fmt.Printf("continuous run:    %d cycles, %d outputs\n", baseCycles, len(cont.Mem.Outputs))
	fmt.Printf("intermittent run:  %d wall cycles across %d power cycles\n", st.WallCycles, st.Restarts+1)
	fmt.Printf("  checkpoints:     %d %v\n", st.Checkpoints, st.Reasons)
	fmt.Printf("  checkpoint cost: %d cycles (%.2f%%)\n", st.CkptCycles, pct(st.CkptCycles, st.UsefulCycles))
	fmt.Printf("  re-execution:    %d cycles (%.2f%%)\n", st.ReexecCycles, pct(st.ReexecCycles, st.UsefulCycles))
	fmt.Printf("  restart cost:    %d cycles (%.2f%%)\n", st.RestartCycles, pct(st.RestartCycles, st.UsefulCycles))
	fmt.Printf("  total overhead:  %.2f%% (x%.3f baseline)\n", st.Overhead()*100, 1+st.Overhead())
	if run.NVFaultRate > 0 {
		fmt.Printf("  nv faults:       %d torn writes, %d corrupt records detected, %d recovered commits, %d degraded boots\n",
			st.TornWrites, st.DetectedCorrupt, st.RecoveredCommits, st.DegradedBoots)
	}

	if err := compareOutputs(cont.Mem.Outputs, st.Outputs); err != nil {
		cli.Fatal(fmt.Errorf("outputs differ from the continuous run: %w", err))
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
