package verify

import (
	"testing"

	"repro/internal/clank"
)

// staleFilterChecker builds the mini-machine around a detector whose
// access filter skips the violation-time invalidation — the one mandatory
// point invalidation in the filter's transition matrix. A word that gains
// a dirty Write-back entry keeps its cached "read-safe, nothing to do"
// verdict, so a later read is served from stale non-volatile memory
// instead of the buffer.
func staleFilterChecker() Checker {
	return Checker{NewDetector: func(cfg clank.Config) Detector {
		k := clank.New(cfg)
		k.SetFilterBug(clank.FilterBugSkipViolationInvalidate)
		return k
	}}
}

// TestStaleFilterCaught is the meta-test the access filter demands: the
// bounded sweep that proves the filtered detector correct must also be
// sharp enough to catch a filter missing exactly one invalidation. The
// minimal counterexample is R w, W w, R w — three ops, continuous power —
// so even the smallest sweep bound finds it.
func TestStaleFilterCaught(t *testing.T) {
	cfgs := []clank.Config{{ReadFirst: 2, WriteBack: 2}}
	s := &Sweep{
		N: 3, Words: 2, Vals: 2,
		Configs:   cfgs,
		MakeCheck: func() CheckFunc { return staleFilterChecker().Check },
	}
	stats, err := s.Run()
	if err == nil {
		t.Fatal("stale filter survived the bounded sweep — the harness cannot see filter bugs")
	}
	t.Logf("stale filter caught: %v", err)
	if len(stats.Findings) > 0 {
		f := stats.Findings[0]
		t.Logf("counterexample: pattern %v config %v schedule %v", f.Pattern, f.Config, f.Schedule)
	}

	// Control: the identical sweep over the correct filter passes, so the
	// failure above is attributable to the injected staleness alone.
	good := &Sweep{N: 3, Words: 2, Vals: 2, Configs: cfgs}
	if _, err := good.Run(); err != nil {
		t.Fatalf("correct filter failed the control sweep: %v", err)
	}
}
