// Command clank-explore sweeps Clank buffer configurations for one
// benchmark (or a user program) and prints the hardware-size-vs-overhead
// tradeoff, including the Pareto frontier — the per-program version of the
// paper's design-space exploration. The grid replays as one batched,
// sharded sweep over the columnar trace, so the output is byte-identical
// at any -workers count.
//
// Usage:
//
//	clank-explore [-bench fft | prog.c] [-max-rf 32] [-workers 4] [-cpuprofile cpu.prof]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/experiments"
	"repro/internal/intermittent"
	"repro/internal/mibench"
	"repro/internal/policysim"
	"repro/internal/power"
	"repro/internal/scheme"
)

func main() {
	benchName := flag.String("bench", "fft", "MiBench2 benchmark to sweep")
	maxRF := flag.Int("max-rf", 32, "largest Read-first Buffer size swept")
	saveTrace := flag.String("save-trace", "", "write the collected access log to this file")
	loadTrace := flag.String("load-trace", "", "replay a previously saved access log instead of re-simulating")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS; results are identical at any count)")
	schemeSpec := flag.String("scheme", "clank", "runtime scheme to explore: clank sweeps buffer sizes, alpaca[:tasklen] and dica[:interval] sweep the commit-granularity parameter")
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
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	fac, err := scheme.Parse(*schemeSpec)
	if err != nil {
		fatal(err)
	}

	var src, name string
	if flag.NArg() == 1 {
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src, name = string(data), flag.Arg(0)
	} else {
		b, ok := mibench.ByName(*benchName)
		if !ok {
			fatal(fmt.Errorf("unknown benchmark %q", *benchName))
		}
		src, name = b.Source, b.Name
	}

	img, err := ccc.Compile(src)
	if err != nil {
		fatal(err)
	}
	var trace []armsim.Access
	var cycles uint64
	if *loadTrace != "" {
		f, err := os.Open(*loadTrace)
		if err != nil {
			fatal(err)
		}
		var meta armsim.TraceMeta
		trace, cycles, meta, err = armsim.ReadTraceMeta(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		// A trace replays faithfully only against the program it was
		// captured from.
		if err := meta.Check(img.Bytes, img.TextStart, img.TextEnd); err != nil {
			if errors.Is(err, armsim.ErrTraceMismatch) {
				fatal(fmt.Errorf("%s was captured from a different program: %w (re-run with -save-trace to recapture)",
					*loadTrace, err))
			}
			fatal(err)
		}
	} else {
		trace, cycles, err = armsim.CollectTrace(img.Bytes, 2_000_000_000)
		if err != nil {
			fatal(err)
		}
	}
	if *saveTrace != "" {
		f, err := os.Create(*saveTrace)
		if err != nil {
			fatal(err)
		}
		meta := armsim.TraceMeta{
			ImageDigest: armsim.ImageDigest(img.Bytes),
			TextStart:   img.TextStart,
			TextEnd:     img.TextEnd,
		}
		if err := armsim.WriteTraceMeta(f, trace, cycles, meta); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	exempt := ccc.ProgramIdempotentPCs(trace)
	fmt.Printf("%s: %d cycles, %d memory accesses, %d Program Idempotent PCs\n\n",
		name, cycles, len(trace), len(exempt))

	if fac.Name() != "clank" {
		exploreScheme(img, fac, exempt)
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
		fatal(err)
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
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].bits != pts[j].bits {
			return pts[i].bits < pts[j].bits
		}
		return pts[i].ovr < pts[j].ovr
	})
	fmt.Printf("%-14s %6s %10s  %s\n", "config", "bits", "overhead", "pareto")
	best := 1e18
	for _, p := range pts {
		mark := ""
		if p.ovr < best {
			best = p.ovr
			mark = "*"
		}
		fmt.Printf("%-14s %6d %9.2f%%  %s\n", p.cfg, p.bits, p.ovr*100, mark)
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
		fatal(fmt.Errorf("scheme %s has no exploration axis", fac.Name()))
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
				fatal(err)
			}
			st, err := m.Run()
			if err != nil {
				fatal(err)
			}
			if !st.Completed {
				fatal(fmt.Errorf("%s param %d buf %d: run did not complete", fac.Name(), param, bw))
			}
			pts = append(pts, point{param, bw, m.Footprint(), st.Checkpoints, st.Overhead()})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].footprint != pts[j].footprint {
			return pts[i].footprint < pts[j].footprint
		}
		return pts[i].ovr < pts[j].ovr
	})
	best := 1e18
	for _, p := range pts {
		mark := ""
		if p.ovr < best {
			best = p.ovr
			mark = "*"
		}
		fmt.Printf("%-10s %10d %10d %12d %9.2f%%  %s\n",
			fac.Name(), p.param, p.bufWords, p.ckpts, p.ovr*100, mark)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clank-explore:", err)
	os.Exit(1)
}
