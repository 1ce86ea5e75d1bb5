package intermittent

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/clank"
	"repro/internal/mibench"
	"repro/internal/power"
	"repro/internal/scheme"
)

// knownOutputMismatches are the (scheme, kernel) pairs that commit wrong
// outputs today: a byte or halfword store reaches Clank as a whole-word
// write, so the word turns Write-first although its other bytes were never
// written in the section (ROADMAP item 1, sub-word stores). Their runs must
// still complete; a wrong output is logged instead of failing. Remove an
// entry with the fix.
var knownOutputMismatches = map[string]bool{
	"clank/aes": true,
	"clank/rc4": true,
}

// TestSuiteOutputConformance is the suite-wide output oracle: every MiBench
// kernel and DS, under Clank, Alpaca and DiCA, must commit exactly the
// continuous run's outputs (mibench.Compiled.Outputs) on two supplies with
// two seeds each. The first supply is the fleet's: mean on-time 100k
// cycles with Verify off, so Clank completes filter hits inside the fused
// core through its access port. The second is mean on-time 20k with the
// reference monitor on. Every kernel builds one frozen shared program, and
// each machine re-arms for its second seed with ResetDevice, as fleet
// devices do.
func TestSuiteOutputConformance(t *testing.T) {
	cfg := clank.Config{ReadFirst: 16, WriteFirst: 8, WriteBack: 4, AddrPrefix: 4, PrefixLowBits: 6, Opts: clank.OptAll}
	supplies := []struct {
		name   string
		meanOn uint64
		verify bool
	}{
		{"fleet100k", 100_000, false},
		{"verified20k", 20_000, true},
	}
	seeds := []int64{1, 2}
	schemes := []string{"clank", "alpaca", "dica"}

	for _, b := range append(mibench.All(), mibench.DS()) {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			c, err := mibench.Build(b)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := BuildSharedProgram(c.Image, Options{Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(prog.Outputs(), c.Outputs) {
				t.Fatal("the shared program's warm-up outputs differ from the continuous run's")
			}
			for _, name := range schemes {
				fac, err := scheme.Parse(name)
				if err != nil {
					t.Fatal(err)
				}
				known := knownOutputMismatches[name+"/"+b.Name]
				for _, sup := range supplies {
					supply := func(seed int64) power.Source {
						return power.NewSupply(power.Exponential{Mean: sup.meanOn, Min: 500}, seed)
					}
					m, err := NewMachineShared(c.Image, Options{
						Config:          cfg,
						Scheme:          fac,
						Supply:          supply(seeds[0]),
						ProgressDefault: sup.meanOn / 4,
						Verify:          sup.verify,
					}, prog)
					if err != nil {
						t.Fatal(err)
					}
					if got := m.cpu.AccessPort().Read != nil; got != (name == "clank" && !sup.verify) {
						t.Fatalf("%s/%s: access port installed = %v", name, sup.name, got)
					}
					for i, seed := range seeds {
						if i > 0 {
							m.ResetDevice(supply(seed))
						}
						st, err := m.Run()
						if err != nil {
							t.Fatalf("%s/%s seed %d: %v", name, sup.name, seed, err)
						}
						if !st.Completed {
							t.Fatalf("%s/%s seed %d: run did not complete", name, sup.name, seed)
						}
						if slices.Equal(st.Outputs, c.Outputs) {
							continue
						}
						msg := outputDiff(st.Outputs, c.Outputs)
						if known {
							t.Logf("%s/%s seed %d: known mismatch (ROADMAP item 1): %s", name, sup.name, seed, msg)
							continue
						}
						t.Errorf("%s/%s seed %d: %s", name, sup.name, seed, msg)
					}
				}
			}
		})
	}
}

// outputDiff describes how got differs from the continuous outputs want.
func outputDiff(got, want []uint32) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("output %d is %#x, the continuous run's %#x", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("%d outputs, the continuous run has %d", len(got), len(want))
}
