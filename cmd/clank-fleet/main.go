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

	"repro/internal/cli"
	"repro/internal/fleet"
	"repro/internal/mibench"
)

// replayLines caps the replay lines printed for failing devices.
const replayLines = 3

func main() {
	devices := flag.Int("devices", 10000, "number of devices in the fleet")
	workers := flag.Int("workers", 0, "simulation goroutines (0 = GOMAXPROCS); never affects results")
	exempt := flag.Bool("exempt", false, "profile Program Idempotent PCs first (requires -bench)")
	verify := flag.Bool("verify", false, "run the reference monitor inside every device (slow)")
	outJSONL := flag.String("out", "", "write per-device results as JSON lines to this file")
	outCSV := flag.String("csv", "", "write per-device results as CSV to this file")
	jsonOut := flag.Bool("json", false, "print the aggregate+host report as JSON instead of text")
	run := cli.Default()
	run.Start()
	defer cli.StopProfile()

	img, progName, err := run.Program(flag.Args())
	if err != nil {
		cli.Fatal(err)
	}
	fo := run.Fleet()
	fo.Devices, fo.Workers, fo.Verify = *devices, *workers, *verify
	if *exempt {
		b, ok := mibench.ByName(run.Bench)
		if !ok || run.File != "" {
			cli.Fatal(fmt.Errorf("-exempt requires -bench (profiling needs the benchmark's continuous trace)"))
		}
		c, err := mibench.Build(b)
		if err != nil {
			cli.Fatal(err)
		}
		img, fo.Config.ExemptPCs = c.Image, c.ExemptPCs
	}
	supplyDesc := fmt.Sprintf("exponential on-time (mean %d, min %d cycles), base seed %d", run.MeanOn, run.MinOn, run.Seed)
	if run.Trace != nil {
		supplyDesc = fmt.Sprintf("trace %s (%d samples, mean on-time %d cycles), device-staggered",
			run.PowerTrace, run.Trace.Len(), run.Trace.Mean())
	}

	rep, err := fleet.Run(img, fo)
	if err != nil {
		cli.Fatal(err)
	}

	if *outJSONL != "" {
		if err := writeSink(*outJSONL, rep, fleet.WriteJSONL); err != nil {
			cli.Fatal(err)
		}
	}
	if *outCSV != "" {
		if err := writeSink(*outCSV, rep, fleet.WriteCSV); err != nil {
			cli.Fatal(err)
		}
	}

	a := &rep.Agg
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			cli.Fatal(err)
		}
	} else {
		fmt.Printf("fleet: %d devices of %s, scheme %s, config %s (%d buffer bits)\n",
			a.Devices, progName, run.Scheme.Name(), run.Config, run.Config.BufferBits())
		fmt.Printf("supply: %s\n", supplyDesc)
		fmt.Printf("completed %d/%d devices (%d errors), %d boots, %d checkpoints, %d barren boots\n",
			a.Completed, a.Devices, a.Errors, a.Boots, a.Checkpoints, a.BarrenBoots)
		fmt.Printf("commits: %d torn, %d recovered, %d writes; %d outputs\n",
			a.TornCommits, a.RecoveredCommits, a.CommitWrites, a.Outputs)
		fmt.Printf("outputs: %d/%d devices differ from the continuous run\n", a.OutputMismatches, a.Devices)
		if run.NVFaultRate > 0 {
			fmt.Printf("nv faults (rate %g): %d torn writes, %d corrupt records detected, %d degraded boots\n",
				run.NVFaultRate, a.TornWrites, a.DetectedCorrupt, a.DegradedBoots)
		}
		fmt.Printf("forward progress (permille): p50 %d  p90 %d  p99 %d\n",
			a.ProgressPermille.P50, a.ProgressPermille.P90, a.ProgressPermille.P99)
		fmt.Printf("overhead (permille):         p50 %d  p90 %d  p99 %d\n",
			a.OverheadPermille.P50, a.OverheadPermille.P90, a.OverheadPermille.P99)
		fmt.Printf("aggregate hash: %s (worker-count invariant)\n", a.Hash)
		h := &rep.Host
		fmt.Printf("host: %d workers, %.2fs, %.0f devices/sec, %.1f ns/insn (p50 %.1f, p99 %.1f)\n",
			h.Workers, float64(h.ElapsedNS)/1e9, h.DevicesPerSec, h.NsPerInsn, h.NsPerInsnP50, h.NsPerInsnP99)
		// A failing device reruns alone, under the reference monitor, as the
		// clank-sim command its replay line prints.
		replays := 0
		for _, d := range rep.Results {
			if !d.OutputsMatch && replays < replayLines && run.Trace == nil && !*exempt {
				fmt.Printf("replay device %d: %s\n", d.Device, run.Replay(d.Device))
				replays++
			}
		}
	}
	// The check clank-sim makes for a single device, after the report.
	if a.OutputMismatches > 0 {
		cli.Fatal(fmt.Errorf("outputs of %d/%d devices differ from the continuous run", a.OutputMismatches, a.Devices))
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
