// Command clank-explore sweeps Clank buffer configurations for one
// benchmark (or a user program) and prints the hardware-size-vs-overhead
// tradeoff, including the Pareto frontier — the per-program version of the
// paper's design-space exploration. The grid replays as one batched,
// sharded sweep over the columnar trace, so the output is byte-identical
// at any -workers count. -scheme clank sweeps buffer sizes; alpaca and
// dica sweep their commit-granularity parameter instead.
//
// Usage:
//
//	clank-explore [-bench fft | prog.c] [-scheme clank] [-max-rf 32] [-workers 4] [-cpuprofile cpu.prof]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/intermittent"
	"repro/internal/policysim"
	"repro/internal/power"
	"repro/internal/scheme"
)

func main() {
	maxRF := flag.Int("max-rf", 32, "largest Read-first Buffer size swept")
	saveTrace := flag.String("save-trace", "", "write the collected access log to this file")
	loadTrace := flag.String("load-trace", "", "replay a previously saved access log instead of re-simulating")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS; results are identical at any count)")
	run := cli.Default()
	run.Bench = "fft"
	run.Start("bench", "scheme", "cpuprofile")
	defer cli.StopProfile()

	img, name, err := run.Program(flag.Args())
	if err != nil {
		cli.Fatal(err)
	}
	var trace []armsim.Access
	var cycles uint64
	if *loadTrace != "" {
		f, err := os.Open(*loadTrace)
		if err != nil {
			cli.Fatal(err)
		}
		var meta armsim.TraceMeta
		trace, cycles, meta, err = armsim.ReadTraceMeta(f)
		f.Close()
		if err != nil {
			cli.Fatal(err)
		}
		// A trace replays faithfully only against the program it was
		// captured from.
		if err := meta.Check(img.Bytes, img.TextStart, img.TextEnd); errors.Is(err, armsim.ErrTraceMismatch) {
			cli.Fatal(fmt.Errorf("%s was captured from a different program: %w (re-run with -save-trace to recapture)",
				*loadTrace, err))
		} else if err != nil {
			cli.Fatal(err)
		}
	} else {
		trace, cycles, err = armsim.CollectTrace(img.Bytes, 2_000_000_000)
		if err != nil {
			cli.Fatal(err)
		}
	}
	if *saveTrace != "" {
		f, err := os.Create(*saveTrace)
		if err != nil {
			cli.Fatal(err)
		}
		meta := armsim.TraceMeta{ImageDigest: armsim.ImageDigest(img.Bytes), TextStart: img.TextStart, TextEnd: img.TextEnd}
		if err := armsim.WriteTraceMeta(f, trace, cycles, meta); err != nil {
			cli.Fatal(err)
		}
		if err := f.Close(); err != nil {
			cli.Fatal(err)
		}
	}
	exempt := ccc.ProgramIdempotentPCs(trace)
	fmt.Printf("%s: %d cycles, %d memory accesses, %d Program Idempotent PCs\n\n",
		name, cycles, len(trace), len(exempt))

	if run.Scheme.Name() != "clank" {
		exploreScheme(img, run.Scheme, exempt)
		return
	}

	cfgs := experiments.ExploreGrid(*maxRF, img.TextStart, img.TextEnd, exempt)
	jobs := make([]policysim.Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = policysim.Job{Config: cfg, Opts: policysim.Options{Verify: true}}
	}
	sweep := &policysim.Sweep{
		Trace:   policysim.NewBatchTrace(trace, cycles, img.TextStart, img.TextEnd),
		Jobs:    jobs,
		Workers: *workers,
	}
	results, err := sweep.Run()
	if err != nil {
		cli.Fatal(err)
	}

	type point struct {
		cfg  clank.Config
		bits int
		ovr  float64
	}
	pts := make([]point, len(cfgs))
	for i, cfg := range cfgs {
		pts[i] = point{cfg, cfg.BufferBits(), results[i].CheckpointOverhead()}
	}
	fmt.Printf("%-14s %6s %10s  %s\n", "config", "bits", "overhead", "pareto")
	printPareto(pts, func(p point) (uint64, float64) { return uint64(p.bits), p.ovr }, func(p point, mark string) {
		fmt.Printf("%-14s %6d %9.2f%%  %s\n", p.cfg, p.bits, p.ovr*100, mark)
	})
}

// printPareto sorts the points by size, then by overhead, and prints each
// with mark "*" when its overhead beats every point before it: the Pareto
// frontier of size against overhead.
func printPareto[P any](pts []P, key func(P) (size uint64, ovr float64), print func(p P, mark string)) {
	sort.Slice(pts, func(i, j int) bool {
		si, oi := key(pts[i])
		sj, oj := key(pts[j])
		if si != sj {
			return si < sj
		}
		return oi < oj
	})
	best := 1e18
	for _, p := range pts {
		mark := ""
		if _, ovr := key(p); ovr < best {
			best, mark = ovr, "*"
		}
		print(p, mark)
	}
}

// exploreScheme is the non-Clank design-space axis: where the detector
// trades buffer bits against checkpoint count, the scheduled schemes trade
// commit granularity (task length / interval) and privatization-buffer
// capacity against checkpoint count. Each grid point runs the program once
// on continuous power, so the printed overhead is pure checkpoint cost —
// the same quantity the buffer sweep reports.
func exploreScheme(img *ccc.Image, fac scheme.Factory, exempt map[uint32]bool) {
	var base uint64
	var build func(param uint64, bufWords int) scheme.Factory
	switch f := fac.(type) {
	case scheme.AlpacaFactory:
		base = f.TaskLen
		if base == 0 {
			base = scheme.DefaultTaskLen
		}
		build = func(p uint64, bw int) scheme.Factory { return scheme.AlpacaFactory{TaskLen: p, BufWords: bw} }
	case scheme.DiCAFactory:
		base = f.Interval
		if base == 0 {
			base = scheme.DefaultInterval
		}
		build = func(p uint64, bw int) scheme.Factory { return scheme.DiCAFactory{Interval: p, BufWords: bw} }
	default:
		cli.Fatal(fmt.Errorf("scheme %s has no exploration axis", fac.Name()))
	}

	// The scheduled schemes never consult the detector buffers, but the
	// machine still validates the hardware configuration — pass the
	// smallest legal one.
	cfg := clank.Config{ReadFirst: 1, Opts: clank.OptAll,
		TextStart: img.TextStart, TextEnd: img.TextEnd, ExemptPCs: exempt}
	fmt.Printf("%-10s %10s %10s %12s %10s  %s\n",
		"scheme", fac.Name()+"-len", "buf-words", "checkpoints", "overhead", "pareto")

	type point struct {
		param     uint64
		bufWords  int
		footprint uint64
		ckpts     int
		ovr       float64
	}
	var pts []point
	for _, param := range []uint64{base / 4, base / 2, base, base * 2, base * 4} {
		if param == 0 {
			continue
		}
		for _, bw := range []int{16, 64, 256} {
			m, err := intermittent.NewMachine(img, intermittent.Options{
				Config: cfg,
				Scheme: build(param, bw),
				Supply: power.Always{},
			})
			if err != nil {
				cli.Fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				cli.Fatal(err)
			}
			if !st.Completed {
				cli.Fatal(fmt.Errorf("%s param %d buf %d: run did not complete", fac.Name(), param, bw))
			}
			pts = append(pts, point{param, bw, m.Footprint(), st.Checkpoints, st.Overhead()})
		}
	}
	printPareto(pts, func(p point) (uint64, float64) { return p.footprint, p.ovr }, func(p point, mark string) {
		fmt.Printf("%-10s %10d %10d %12d %9.2f%%  %s\n", fac.Name(), p.param, p.bufWords, p.ckpts, p.ovr*100, mark)
	})
}
