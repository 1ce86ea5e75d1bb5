package policysim_test

import (
	"testing"

	"repro/internal/clank"
	"repro/internal/experiments"
	"repro/internal/mibench"
	"repro/internal/policysim"
)

// table2Jobs is the paper's five Table 2 configurations wired for one
// compiled benchmark — the design-space sweep unit the batch engine is
// sized for. (The experiments package carries the canonical list; it is
// inlined here because experiments sits above policysim in the import
// graph.)
func table2Jobs(c *mibench.Compiled) []policysim.Job {
	base := []clank.Config{
		{ReadFirst: 16, Opts: clank.OptAll},
		{ReadFirst: 8, WriteFirst: 8, Opts: clank.OptAll},
		{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll},
		{ReadFirst: 16, WriteFirst: 8, WriteBack: 4, AddrPrefix: 4, PrefixLowBits: 6, Opts: clank.OptAll},
		{ReadFirst: 16, WriteFirst: 8, WriteBack: 4, AddrPrefix: 4, PrefixLowBits: 6, Opts: clank.OptAll},
	}
	jobs := make([]policysim.Job, len(base))
	for i, cfg := range base {
		cfg.TextStart, cfg.TextEnd = c.Image.TextStart, c.Image.TextEnd
		var po policysim.Options
		if i == len(base)-1 { // 16,8,4,4 +C+WDT
			cfg.ExemptPCs = c.ExemptPCs
			po.PerfWatchdog = 20_000
		}
		jobs[i] = policysim.Job{Config: cfg, Opts: po}
	}
	return jobs
}

var benchCompiled *mibench.Compiled

func benchBuild(b *testing.B) *mibench.Compiled {
	b.Helper()
	if benchCompiled == nil {
		bench, ok := mibench.ByName("crc")
		if !ok {
			b.Fatal("crc benchmark missing")
		}
		c, err := mibench.Build(bench)
		if err != nil {
			b.Fatal(err)
		}
		benchCompiled = c
	}
	return benchCompiled
}

// BenchmarkBatchSweepTable2 replays the Table 2 configuration set over
// one MiBench trace in a single batched pass — the engine the
// design-space sweeps run on. ns/access is per configuration replayed.
func BenchmarkBatchSweepTable2(b *testing.B) {
	benchSweepTable2(b, false)
}

// BenchmarkBatchSweepTable2Verified is BenchmarkBatchSweepTable2 with the
// reference monitor attached to every job, as every production sweep
// runs.
func BenchmarkBatchSweepTable2Verified(b *testing.B) {
	benchSweepTable2(b, true)
}

// BenchmarkBatchSweepGridVerified replays clank-explore's 96-config
// buffer grid (experiments.ExploreGrid at max-rf 32, Program Idempotent
// exemptions on) with the reference monitor attached to every job: the
// long-section configurations where Verify costs the most.
func BenchmarkBatchSweepGridVerified(b *testing.B) {
	c := benchBuild(b)
	var jobs []policysim.Job
	for _, cfg := range experiments.ExploreGrid(32, c.Image.TextStart, c.Image.TextEnd, c.ExemptPCs) {
		jobs = append(jobs, policysim.Job{Config: cfg, Opts: policysim.Options{Verify: true}})
	}
	benchSweep(b, c, jobs)
}

func benchSweepTable2(b *testing.B, verify bool) {
	c := benchBuild(b)
	jobs := table2Jobs(c)
	for i := range jobs {
		jobs[i].Opts.Verify = verify
	}
	benchSweep(b, c, jobs)
}

// benchSweep replays jobs over c's trace as one batch per iteration and
// reports ns per (access × config).
func benchSweep(b *testing.B, c *mibench.Compiled, jobs []policysim.Job) {
	tr := policysim.NewBatchTrace(c.Trace, c.Cycles, c.Image.TextStart, c.Image.TextEnd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := policysim.SimulateBatch(tr, jobs)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if !res.Completed {
				b.Fatal("replay did not complete")
			}
		}
	}
	perAccess := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(jobs)) / float64(len(c.Trace))
	b.ReportMetric(perAccess, "ns/access")
}
