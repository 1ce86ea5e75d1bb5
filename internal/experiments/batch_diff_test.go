package experiments

import (
	"fmt"
	"testing"

	"repro/internal/policysim"
)

// TestBatchMatchesScalarAcrossSuite is the sweep-scale differential: the
// full Table 2 configuration set replays every benchmark in the suite
// through the batch engine — with power cycling and dynamic verification
// on, exactly as the experiments run it — and each Result must be
// byte-identical (==) to the scalar Simulate reference for the same job.
func TestBatchMatchesScalarAcrossSuite(t *testing.T) {
	o := Options{Verify: true, Seeds: []int64{11}}.withDefaults()
	suite, err := BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	configs := Table2Configs()
	seed := o.Seeds[0]
	err = parallelFor(len(suite), func(bi int) error {
		c := suite[bi]
		jobs := make([]policysim.Job, len(configs))
		for ci, nc := range configs {
			jobs[ci] = jobFor(c, nc, o, newSupply(o.MeanOn, seed))
		}
		got, err := batchRun(c, jobs)
		if err != nil {
			return err
		}
		for ci, nc := range configs {
			ref := jobFor(c, nc, o, newSupply(o.MeanOn, seed))
			want, err := policysim.Simulate(c.Trace, c.Cycles, ref.Config, ref.Opts)
			if err != nil {
				return fmt.Errorf("scalar %s on %s: %w", nc.Name, c.Bench.Name, err)
			}
			if got[ci] != want {
				return fmt.Errorf("%s on %s: batch %+v != scalar %+v", nc.Name, c.Bench.Name, got[ci], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBatchMatchesScalarAcrossSuiteVerifiedGrid is the continuous-power
// leg of the suite-scale differential: clank-explore's grid (at max-rf 8)
// with dynamic verification on replays every benchmark on the lockstep
// core, whose filter-probe loop feeds the reference monitor. A rotating
// third of the Results — every grid configuration on seven or eight
// benchmarks, every benchmark on 21 or 22 configurations — must be
// byte-identical (==) to Simulate's, which replays on the general core.
// Checking all of them would add ~10 s on a 2-vCPU host; a third keeps
// the leg near 5 s.
func TestBatchMatchesScalarAcrossSuiteVerifiedGrid(t *testing.T) {
	const stride = 3
	suite, err := BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	err = parallelFor(len(suite), func(bi int) error {
		c := suite[bi]
		cfgs := ExploreGrid(8, c.Image.TextStart, c.Image.TextEnd, c.ExemptPCs)
		jobs := make([]policysim.Job, len(cfgs))
		for i, cfg := range cfgs {
			jobs[i] = policysim.Job{Config: cfg, Opts: policysim.Options{Verify: true}}
		}
		got, err := batchRun(c, jobs)
		if err != nil {
			return err
		}
		for i, j := range jobs {
			if (i+bi)%stride != 0 {
				continue
			}
			want, err := policysim.Simulate(c.Trace, c.Cycles, j.Config, j.Opts)
			if err != nil {
				return fmt.Errorf("scalar %s on %s: %w", j.Config, c.Bench.Name, err)
			}
			if got[i] != want {
				return fmt.Errorf("%s on %s: batch %+v != scalar %+v", j.Config, c.Bench.Name, got[i], want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
