// Command clank-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	clank-experiments [-quick] [-mean-on N] [-no-verify] [-cpuprofile cpu.prof] table1|table2|table3|table4|fig5|fig6|fig7|fig8|ablation|powersweep|crossscheme|all
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"repro/internal/experiments"
	"repro/internal/power"
)

type formatter interface{ Format() string }

func main() {
	quick := flag.Bool("quick", false, "reduced configuration sweeps")
	meanOn := flag.Uint64("mean-on", power.DefaultMeanOn, "average power-on time in cycles")
	noVerify := flag.Bool("no-verify", false, "skip the reference monitor (faster sweeps)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: clank-experiments [-quick] [-mean-on N] [-no-verify] [-cpuprofile cpu.prof] table1|table2|table3|table4|fig5|fig6|fig7|fig8|ablation|powersweep|crossscheme|all")
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
				os.Exit(1)
			}
		}()
	}
	o := experiments.Options{Quick: *quick, MeanOn: *meanOn, Verify: !*noVerify}

	runners := map[string]func() (formatter, error){
		"table1":      func() (formatter, error) { return experiments.Table1() },
		"table2":      func() (formatter, error) { return experiments.Table2(o) },
		"table3":      func() (formatter, error) { return experiments.Table3(o) },
		"table4":      func() (formatter, error) { return experiments.Table4(o) },
		"fig5":        func() (formatter, error) { return experiments.Figure5(o) },
		"fig6":        func() (formatter, error) { return experiments.Figure6(o) },
		"fig7":        func() (formatter, error) { return experiments.Figure7(o) },
		"fig8":        func() (formatter, error) { return experiments.Figure8(o) },
		"ablation":    func() (formatter, error) { return experiments.Ablation(o) },
		"powersweep":  func() (formatter, error) { return experiments.PowerSweep(o) },
		"crossscheme": func() (formatter, error) { return experiments.CrossScheme(o) },
	}
	names := []string{flag.Arg(0)}
	if flag.Arg(0) == "all" {
		names = []string{"table1", "fig5", "fig6", "table2", "fig7", "fig8", "table3", "table4", "crossscheme"}
	}
	for _, name := range names {
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		d, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(d.Format())
	}
}
