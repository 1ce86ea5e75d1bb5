// Command clank-verify runs the bounded verification sweep offline, deeper
// than CI budgets allow: symmetry-pruned parallel enumeration of every
// access pattern up to the bound, against the standard configuration family
// and every single-failure schedule, with counterexample shrinking on
// failure. -diff and -crash hold the real armsim+intermittent pipeline to
// the oracle through one verify.Harness per worker. With -diff
// (Harness.Check) each triple runs on the mini-machine, then on the
// pipeline with power cut at the schedule's data accesses. With -crash
// (Harness.CheckCommits) each (pattern, configuration) is re-executed once
// per commit-protocol NV-write cut position × tear mask, proving the
// two-phase checkpoint commit recoverable at every write boundary.
//
// Usage:
//
//	clank-verify [-n 7] [-words 2] [-vals 2] [-workers 0] [-canonical]
//	             [-prefix-depth 2] [-diff] [-crash] [-no-shrink] [-collect]
//
// Exit status is 0 when every triple passes, 1 on a counterexample.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/verify"
)

func main() {
	n := flag.Int("n", 7, "pattern-length bound")
	words := flag.Int("words", 2, "address-space size in words")
	vals := flag.Int("vals", 2, "written values drawn from 1..vals")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	canonical := flag.Bool("canonical", true, "prune by symmetry canonicalization")
	prefixDepth := flag.Int("prefix-depth", 2, "shard granularity (ops of canonical prefix)")
	diff := flag.Bool("diff", false, "also execute every triple on the real armsim+intermittent pipeline")
	crash := flag.Bool("crash", false, "crash-consistency mode: cut power before every commit-protocol NV write")
	noShrink := flag.Bool("no-shrink", false, "report the raw counterexample without minimizing")
	collect := flag.Bool("collect", false, "keep sweeping after the first counterexample and report all")
	flag.Parse()

	s := &verify.Sweep{
		N:           *n,
		Words:       *words,
		Vals:        *vals,
		Canonical:   *canonical,
		Workers:     *workers,
		PrefixDepth: *prefixDepth,
		CollectAll:  *collect,
		NoShrink:    *noShrink,
	}
	mode := "mini-machine"
	switch {
	case *crash:
		mode = "crash-consistency cut-point"
		// Cut positions are generated inside the harness; the schedule
		// axis collapses to the continuous-power placeholder.
		s.Schedules = []verify.Schedule{verify.FailAt(-1)}
		s.MakeCheck = func() verify.CheckFunc { return verify.NewHarness(*n).CheckCommits }
	case *diff:
		mode = "full-stack differential"
		s.MakeCheck = func() verify.CheckFunc { return verify.NewHarness(*n).Check }
	}

	start := time.Now()
	stats, err := s.Run()
	elapsed := time.Since(start)
	fmt.Printf("sweep n=%d words=%d vals=%d (%s, canonical=%v): %d patterns, %d runs, %d shards, %d config groups in %v\n",
		*n, *words, *vals, mode, *canonical, stats.Patterns, stats.Runs, stats.Shards, stats.Groups,
		elapsed.Round(time.Millisecond))
	if secs := elapsed.Seconds(); secs > 0 {
		fmt.Printf("throughput: %.0f patterns/sec, %.0f runs/sec\n",
			float64(stats.Patterns)/secs, float64(stats.Runs)/secs)
	}
	for i, f := range stats.Findings {
		if i > 0 || err == nil {
			fmt.Printf("finding %d: shard %d seq %d pattern %v config %s sched %v: %v\n",
				i, f.Shard, f.Seq, f.Pattern, f.Config, f.Schedule, f.Err)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
