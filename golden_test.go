package repro

// The accounting golden gate: exact digests of the run-time overhead
// breakdown that the intermittent machine and the policy simulator report
// for a fixed grid of benchmarks, schemes, supplies and faults. The digests
// were recorded before the power-budget / watchdog / barren-boot state
// machine moved into clank.Ledger, and any change to that accounting —
// one cycle charged to a different counter, one checkpoint attributed to a
// different cause — moves them. Each digest hashes an explicit field list
// (never %+v), so regrouping the fields of Stats or Result cannot move it.
//
// aes and rc4 are left out on purpose: a known sub-word-store bug gives
// them wrong outputs, and its fix will legitimately move their numbers.

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"repro/internal/clank"
	"repro/internal/experiments"
	"repro/internal/intermittent"
	"repro/internal/mibench"
	"repro/internal/policysim"
	"repro/internal/power"
	"repro/internal/scheme"
)

const (
	goldenIntermittent = "131ee0178cf82c952c3972fd1525082f7492c2f96ac070e4dd2ca54734661288"
	// Simulate and Sweep must agree job for job, so they share a digest.
	goldenPolicysim = "b9c5a048ea430fdc6bbe52962f46be6f4eea7949d6cab411f69926b2018570c8"
)

func goldenBuild(t *testing.T, name string) *mibench.Compiled {
	t.Helper()
	b, ok := mibench.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	c, err := mibench.Build(b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func checkDigest(t *testing.T, what string, h hash.Hash, want string) {
	t.Helper()
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("%s accounting digest moved:\n got %s\nwant %s", what, got, want)
	}
}

// hashStats folds every accounting field of an intermittent run into h.
func hashStats(h hash.Hash, st intermittent.Stats, err error) {
	fmt.Fprintf(h, "%v %d %d %d %d %d|%d %d %d %d %d|%d %d %d %d %d %d|",
		st.Completed, st.UsefulCycles, st.WallCycles, st.CkptCycles, st.RestartCycles, st.ReexecCycles,
		st.Checkpoints, st.Restarts, st.BarrenBoots, st.ProgWatchdogs, st.PerfWatchdogs,
		st.CommitWrites, st.TornCommits, st.RecoveredCommits, st.TornWrites, st.DetectedCorrupt, st.DegradedBoots)
	for r := clank.Reason(0); int(r) < clank.NumReasons; r++ {
		fmt.Fprintf(h, "%d,", st.Reasons[r])
	}
	fmt.Fprintf(h, "|%v|err=%v\n", st.Outputs, err)
}

// hashResult folds every field of a policy-simulator Result into h.
func hashResult(h hash.Hash, r policysim.Result, err error) {
	fmt.Fprintf(h, "%v %d %d %d %d %d|%d %d %d %d %d|",
		r.Completed, r.UsefulCycles, r.WallCycles, r.CkptCycles, r.RestartCycles, r.ReexecCycles,
		r.Checkpoints, r.Restarts, r.BarrenBoots, r.PerfWatchdogs, r.ProgWatchdogs)
	for rs := clank.Reason(0); int(rs) < clank.NumReasons; rs++ {
		fmt.Fprintf(h, "%d,", r.Reasons[rs])
	}
	fmt.Fprintf(h, "|err=%v\n", err)
}

// TestAccountingGoldenIntermittent covers clank, alpaca and dica on fft,
// sha and crc under continuous power, two harvested supplies, and the same
// supplies with one torn commit write.
func TestAccountingGoldenIntermittent(t *testing.T) {
	const meanOn = 5000
	h := sha256.New()
	var barren, prog, perf, torn, recovered int
	for _, bench := range []string{"fft", "sha", "crc"} {
		c := goldenBuild(t, bench)
		for _, spec := range []string{"clank", "alpaca", "dica"} {
			fac, err := scheme.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			type run struct {
				seed  int64 // 0 = continuous power
				fault bool
			}
			for _, r := range []run{{0, false}, {1, false}, {2, false}, {1, true}, {2, true}} {
				o := intermittent.Options{
					Config: clank.Config{ReadFirst: 16, WriteFirst: 8, WriteBack: 4,
						AddrPrefix: 4, PrefixLowBits: 6, Opts: clank.OptAll},
					Scheme:          fac,
					Supply:          power.Always{},
					PerfWatchdog:    meanOn / 2,
					ProgressDefault: meanOn / 4,
					Verify:          true,
				}
				if r.seed != 0 {
					o.Supply = power.NewSupply(power.Exponential{Mean: meanOn, Min: 500}, r.seed)
				}
				if r.fault {
					o.NVFault = intermittent.TearAtCommitWrite(40+int(r.seed)*7, 0x00FF00FF)
				}
				m, err := intermittent.NewMachine(c.Image, o)
				if err != nil {
					t.Fatal(err)
				}
				st, err := m.Run()
				fmt.Fprintf(h, "%s/%s/%d/%v:", bench, spec, r.seed, r.fault)
				hashStats(h, st, err)
				barren += st.BarrenBoots
				prog += st.ProgWatchdogs
				perf += st.PerfWatchdogs
				torn += st.TornWrites
				recovered += st.RecoveredCommits
			}
		}
	}
	if barren == 0 || prog == 0 || perf == 0 || torn == 0 || recovered == 0 {
		t.Errorf("golden grid exercised too little: %d barren boots, %d progress and %d performance watchdogs, %d torn writes, %d recovered commits",
			barren, prog, perf, torn, recovered)
	}
	checkDigest(t, "intermittent", h, goldenIntermittent)
}

// goldenJobs is the policy-simulator job list for one benchmark: the
// Table 2 configurations under two harvested supplies (redo and undo
// logging, and mixed volatility), and the clank-explore grid under
// continuous power and under one harvested supply.
func goldenJobs(c *mibench.Compiled) []policysim.Job {
	const meanOn = 5000
	supply := func(seed int64) power.Source {
		return power.NewSupply(power.Exponential{Mean: meanOn, Min: 500}, seed)
	}
	mixed := &policysim.MixedVolatility{
		VolatileStart: c.Image.DataEnd,
		VolatileEnd:   c.Image.ReservedBase,
		StackTop:      c.Image.InitialSP,
	}
	var jobs []policysim.Job
	for _, nc := range experiments.Table2Configs() {
		cfg := nc.Config
		cfg.TextStart, cfg.TextEnd = c.Image.TextStart, c.Image.TextEnd
		if nc.Compiler {
			cfg.ExemptPCs = c.ExemptPCs
		}
		wdt := uint64(meanOn / 4)
		if nc.PerfWatchdog {
			wdt = experiments.OptimalPerfWatchdog(clank.DefaultCosts().CheckpointBase, meanOn)
		}
		for seed := int64(1); seed <= 2; seed++ {
			for variant := 0; variant < 3; variant++ {
				o := policysim.Options{
					Supply:          supply(seed),
					PerfWatchdog:    wdt,
					ProgressDefault: meanOn / 4,
					Verify:          true,
				}
				switch variant {
				case 1:
					o.UndoLog = true
				case 2:
					o.Mixed = mixed
				}
				jobs = append(jobs, policysim.Job{Config: cfg, Opts: o})
			}
		}
	}
	grid := experiments.ExploreGrid(32, c.Image.TextStart, c.Image.TextEnd, c.ExemptPCs)
	for i, cfg := range grid {
		jobs = append(jobs, policysim.Job{Config: cfg, Opts: policysim.Options{Verify: true}})
		jobs = append(jobs, policysim.Job{Config: cfg, Opts: policysim.Options{
			Supply:          supply(int64(100 + i)),
			PerfWatchdog:    meanOn / 4,
			ProgressDefault: meanOn / 4,
			Verify:          true,
		}})
	}
	return jobs
}

// TestAccountingGoldenPolicysim covers Simulate (the general replay core
// for every job) and Sweep (the lockstep core for the continuous jobs) on
// crc, sha and dijkstra. Each replay gets a fresh supply, so the two
// passes see the same power cycles.
func TestAccountingGoldenPolicysim(t *testing.T) {
	hs, hw := sha256.New(), sha256.New()
	var barren, prog, perf int
	for _, bench := range []string{"crc", "sha", "dijkstra"} {
		c := goldenBuild(t, bench)
		for i, j := range goldenJobs(c) {
			r, err := policysim.Simulate(c.Trace, c.Cycles, j.Config, j.Opts)
			fmt.Fprintf(hs, "%s/%d:", bench, i)
			hashResult(hs, r, err)
			barren += r.BarrenBoots
			prog += r.ProgWatchdogs
			perf += r.PerfWatchdogs
		}
		tr := policysim.NewBatchTrace(c.Trace, c.Cycles, c.Image.TextStart, c.Image.TextEnd)
		res, err := (&policysim.Sweep{Trace: tr, Jobs: goldenJobs(c), Workers: 2}).Run()
		if err != nil {
			t.Errorf("%s sweep: %v", bench, err)
		}
		for i, r := range res {
			fmt.Fprintf(hw, "%s/%d:", bench, i)
			hashResult(hw, r, nil)
		}
	}
	if barren == 0 || prog == 0 || perf == 0 {
		t.Errorf("golden jobs exercised too little: %d barren boots, %d progress and %d performance watchdogs",
			barren, prog, perf)
	}
	checkDigest(t, "Simulate", hs, goldenPolicysim)
	checkDigest(t, "Sweep", hw, goldenPolicysim)
}
