// Command clank-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	clank-experiments [-quick] [-mean-on N] [-no-verify] [-cpuprofile cpu.prof] table1|table2|table3|table4|fig5|fig6|fig7|fig8|ablation|powersweep|crossscheme|all
package main

import (
	"flag"
	"fmt"

	"repro/internal/cli"
	"repro/internal/experiments"
)

type formatter interface{ Format() string }

const usage = "clank-experiments [-quick] [-mean-on N] [-no-verify] [-cpuprofile cpu.prof] table1|table2|table3|table4|fig5|fig6|fig7|fig8|ablation|powersweep|crossscheme|all"

func main() {
	quick := flag.Bool("quick", false, "reduced configuration sweeps")
	noVerify := flag.Bool("no-verify", false, "skip the reference monitor (faster sweeps)")
	run := cli.Default()
	run.Start("mean-on", "cpuprofile")
	defer cli.StopProfile()
	if flag.NArg() != 1 {
		cli.Fatal(fmt.Errorf("%w: %s", cli.ErrUsage, usage))
	}
	o := experiments.Options{Quick: *quick, MeanOn: run.MeanOn, Verify: !*noVerify}

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
		experiment, ok := runners[name]
		if !ok {
			cli.Fatal(fmt.Errorf("%w: unknown experiment %q; %s", cli.ErrUsage, name, usage))
		}
		d, err := experiment()
		if err != nil {
			cli.Fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println(d.Format())
	}
}
