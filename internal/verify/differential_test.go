package verify

import (
	"testing"

	"repro/internal/clank"
	"repro/internal/scheme"
)

// diffConfigs is the configuration family the full-stack differential
// sweeps use: one representative per buffer/optimization/symmetry shape
// (plain RF, RF+WF, write-back, APB, all-opts, and a TEXT-segment config).
func diffConfigs() []clank.Config {
	return []clank.Config{
		{ReadFirst: 1},
		{ReadFirst: 2, WriteFirst: 1},
		{ReadFirst: 2, WriteFirst: 1, WriteBack: 2, Opts: clank.OptAll &^ clank.OptIgnoreText},
		{ReadFirst: 2, WriteFirst: 1, WriteBack: 1, AddrPrefix: 1, PrefixLowBits: 1},
		{ReadFirst: 1, WriteBack: 1, Opts: clank.OptAll, TextStart: 0, TextEnd: 4},
	}
}

// TestDiffHarnessBasic hand-picks patterns with known interesting behavior
// (RMW violation, buffer overflow, text write, repeated words) and runs
// them through the full pipeline under every diff configuration and
// single-failure schedule.
func TestDiffHarnessBasic(t *testing.T) {
	patterns := []Pattern{
		{},
		{{Word: 0}},
		{{Write: true, Word: 0, Val: 7}},
		{{Word: 0}, {Write: true, Word: 0, Val: 1}}, // the canonical WAR violation
		{{Word: 0}, {Write: true, Word: 0, Val: 1}, {Word: 0}, {Write: true, Word: 0, Val: 2}},
		{{Word: 0}, {Word: 1}, {Word: 2}, {Word: 3}},                                             // RF overflow
		{{Write: true, Word: 0, Val: 1}, {Write: true, Word: 1, Val: 2}, {Word: 0}, {Word: 1}},   // text write + readback
		{{Write: true, Word: 2, Val: 3}, {Word: 2}, {Write: true, Word: 2, Val: 3}, {Word: 2}},   // false write
		{{Word: 3}, {Write: true, Word: 1, Val: 1}, {Word: 1}, {Write: true, Word: 3, Val: 255}}, // max imm8 value
	}
	h := NewHarness(6)
	for _, p := range patterns {
		for _, cfg := range diffConfigs() {
			for f := -1; f < len(p)+2; f++ {
				if err := h.Check(p, 4, cfg, FailAt(f)); err != nil {
					t.Fatalf("pattern %v: %v", p, err)
				}
			}
			for _, period := range []int{1, 2, 3} {
				if err := h.Check(p, 4, cfg, FailEvery{Period: period}); err != nil {
					t.Fatalf("pattern %v (every %d): %v", p, period, err)
				}
			}
		}
	}
}

// TestFullStackDifferentialBounded runs the full-stack pipeline over the
// complete unpruned pattern space at the old exhaustive bound (n=5, the
// TestExhaustiveBounded bound before the canonical sweep deepened it), so
// the real armsim+intermittent+predecode machine is held to the oracle on
// exactly the space the abstract proof covers.
func TestFullStackDifferentialBounded(t *testing.T) {
	n := 5
	if testing.Short() {
		n = 3
	}
	h := NewHarness(n)
	var schedules []Schedule
	schedules = append(schedules, FailAt(-1))
	for f := 0; f < n+2; f++ {
		schedules = append(schedules, FailAt(f))
	}
	patterns, runs := 0, 0
	err := EnumeratePatterns(n, 2, 2, func(p Pattern) error {
		patterns++
		for _, cfg := range diffConfigs() {
			for _, sched := range schedules {
				runs++
				if err := h.Check(p, 2, cfg, sched); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("full-stack verified %d patterns (%d runs)", patterns, runs)
}

// TestDiffHarnessRepeatedFailures drives the degenerate and short repeated
// schedules through the real pipeline at a smaller bound.
func TestDiffHarnessRepeatedFailures(t *testing.T) {
	n := 3
	h := NewHarness(n)
	err := EnumeratePatterns(n, 2, 2, func(p Pattern) error {
		for _, cfg := range diffConfigs() {
			for _, period := range []int{1, 2} {
				if err := h.Check(p, 2, cfg, FailEvery{Period: period}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// crossSchemes are the non-Clank runtime schemes the cross-scheme sweeps
// run, each with the commit reason only its own trigger raises. The
// parameters are tuned down so the triggers fire inside the tiny lowered
// programs (output-bracketing commits re-base the schedules, so the
// defaults would never be reached); requireTrigger checks that they do.
var crossSchemes = []struct {
	fac    scheme.Factory
	reason clank.Reason
}{
	{scheme.AlpacaFactory{TaskLen: 16}, clank.ReasonTaskBoundary},
	{scheme.DiCAFactory{Interval: 24}, clank.ReasonCommitInterval},
}

// requireTrigger fails the test unless the scheme's own commit trigger
// fires in a continuous-power run of one three-op pattern under every diff
// configuration on a harness's machine: a sweep whose commits all come
// from output bracketing would pass without ever exercising the scheme.
func requireTrigger(t *testing.T, fac scheme.Factory, reason clank.Reason) {
	t.Helper()
	h := NewHarness(3)
	h.Scheme = fac
	p := Pattern{{Write: true, Word: 0, Val: 1}, {Word: 0}, {Write: true, Word: 1, Val: 2}}
	for _, cfg := range diffConfigs() {
		l, err := h.load(p, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := h.run(l, noFault)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Reasons[reason] == 0 {
			t.Fatalf("%s config %s: no %v commit in %v; the sweep would be vacuous", fac.Name(), cfg, reason, stats.Reasons)
		}
	}
}

// TestFullStackDifferentialCrossScheme holds the non-Clank runtime schemes
// to the access-cut differential: every pattern at the bound, every diff
// configuration, continuous power, every single-failure position and the
// two shortest repeated periods. Alpaca and DiCA privatize stores instead
// of detecting violations, so the mini-machine says nothing about them;
// the oracle comparison on the real pipeline is the whole check.
func TestFullStackDifferentialCrossScheme(t *testing.T) {
	n := 4
	if testing.Short() || raceDetectorEnabled {
		n = 3
	}
	var schedules []Schedule
	for f := -1; f < n+2; f++ {
		schedules = append(schedules, FailAt(f))
	}
	schedules = append(schedules, FailEvery{Period: 1}, FailEvery{Period: 2})
	for _, cs := range crossSchemes {
		t.Run(cs.fac.Name(), func(t *testing.T) {
			requireTrigger(t, cs.fac, cs.reason)
			s := &Sweep{
				N: n, Words: 2, Vals: 2,
				Configs:   diffConfigs(),
				Schedules: schedules,
				MakeCheck: func() CheckFunc {
					h := NewHarness(n)
					h.Scheme = cs.fac
					return h.Check
				},
			}
			stats, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s full-stack differential: %d patterns, %d runs", cs.fac.Name(), stats.Patterns, stats.Runs)
		})
	}
}
