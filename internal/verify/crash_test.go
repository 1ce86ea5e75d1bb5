package verify

import (
	"os"
	"testing"

	"repro/internal/clank"
	"repro/internal/intermittent"
)

// TestCrashHarnessBasic drives handpicked patterns with interesting
// commit-time behavior (dirty Write-back drains, output bracketing,
// repeated words) through every cut position under every diff
// configuration.
func TestCrashHarnessBasic(t *testing.T) {
	patterns := []Pattern{
		{},
		{{Write: true, Word: 0, Val: 7}},
		{{Word: 0}, {Write: true, Word: 0, Val: 1}}, // the canonical WAR violation
		{{Write: true, Word: 0, Val: 1}, {Write: true, Word: 1, Val: 2}, {Word: 0}, {Word: 1}},
		{{Word: 0}, {Write: true, Word: 0, Val: 1}, {Word: 0}, {Write: true, Word: 0, Val: 2}},
		{{Write: true, Word: 2, Val: 3}, {Word: 2}, {Write: true, Word: 2, Val: 3}, {Word: 2}},
	}
	h := NewHarness(6)
	for _, p := range patterns {
		for _, cfg := range diffConfigs() {
			if err := h.CheckCommits(p, 4, cfg, FailAt(-1)); err != nil {
				t.Fatalf("pattern %v: %v", p, err)
			}
		}
	}
}

// TestCrashConsistencySweepBounded is the acceptance sweep: every pattern
// at the bound, every diff configuration, every possible commit-write cut
// position crossed with every tear mask — the full armsim+intermittent
// pipeline must match the continuous oracle on reads, outputs, and the
// final NV image with zero divergences, and no single fault may force a
// degraded boot. The harness re-runs the pipeline once per (cut × mask),
// so one "run" in the sweep statistics covers 1 + CommitWrites×len(masks)
// pipeline executions.
func TestCrashConsistencySweepBounded(t *testing.T) {
	if raceDetectorEnabled {
		// Each pattern costs 1 + CommitWrites×masks full pipeline runs, and
		// the race detector instruments every simulated memory access —
		// this sweep alone would dominate the package's race run. Its job
		// is exhaustive coverage, not concurrency coverage (the sweep
		// machinery is race-tested by the other sweeps); the full bound
		// runs in the plain test job and the verify-deep CI job, and
		// TestCrashHarnessBasic keeps the new pipeline paths under race.
		t.Skip("skipping exhaustive (cut × mask) sweep under the race detector")
	}
	n := 4
	if testing.Short() {
		n = 3
	}
	// The full adversarial mask set multiplies the sweep's wall clock by
	// its size; the default run keeps a representative trio (clean
	// cut-before, clean cut-after, one blending pattern) and the
	// verify-deep CI job opts into DefaultTearMasks via the environment.
	masks := []uint32{0, 0xFFFFFFFF, 0x55555555}
	if os.Getenv("CLANK_VERIFY_DEEP") != "" {
		masks = DefaultTearMasks
	}
	s := &Sweep{
		N: n, Words: 2, Vals: 2,
		Configs:   diffConfigs(),
		Schedules: []Schedule{FailAt(-1)},
		MakeCheck: func() CheckFunc {
			h := NewHarness(n)
			h.Masks = masks
			return h.CheckCommits
		},
	}
	stats, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("crash sweep: %d patterns, %d (cut x mask) sweeps over %d masks",
		stats.Patterns, stats.Runs, len(masks))
}

// TestCrashConsistencyCrossScheme runs the bounded (cut × mask) sweep under
// the non-Clank runtime schemes: Alpaca and DiCA reuse the same two-phase
// commit program, so every torn-write cut that the Clank sweep covers must
// recover identically when the dirty set comes from a privatization buffer
// and the commits fire on task boundaries or wall-clock intervals
// (requireTrigger checks that they do).
func TestCrashConsistencyCrossScheme(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("skipping exhaustive (cut × mask) sweep under the race detector")
	}
	n := 3
	masks := []uint32{0, 0xFFFFFFFF, 0x55555555}
	if os.Getenv("CLANK_VERIFY_DEEP") != "" {
		masks = DefaultTearMasks
	}
	for _, cs := range crossSchemes {
		t.Run(cs.fac.Name(), func(t *testing.T) {
			requireTrigger(t, cs.fac, cs.reason)
			s := &Sweep{
				N: n, Words: 2, Vals: 2,
				Configs:   diffConfigs(),
				Schedules: []Schedule{FailAt(-1)},
				MakeCheck: func() CheckFunc {
					h := NewHarness(n)
					h.Masks = masks
					h.Scheme = cs.fac
					return h.CheckCommits
				},
			}
			stats, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s crash sweep: %d patterns, %d (cut x mask) sweeps over %d masks",
				cs.fac.Name(), stats.Patterns, stats.Runs, len(masks))
		})
	}
}

// TestCrashSweepCatchesEarlyFlipBug is the regression meta-test demanded by
// the fault model: a protocol that flips the checkpoint pointer before the
// journal is fully written is clean on continuous power and under the old
// atomic checkpoint model, but the cut-point sweep must expose it — a cut
// in the armed-but-unjournaled window makes recovery replay stale garbage
// while the real Write-back values are lost.
func TestCrashSweepCatchesEarlyFlipBug(t *testing.T) {
	s := &Sweep{
		N: 3, Words: 2, Vals: 2,
		Configs: []clank.Config{
			{ReadFirst: 2, WriteFirst: 1, WriteBack: 1, Opts: clank.OptAll &^ clank.OptIgnoreText},
		},
		Schedules: []Schedule{FailAt(-1)},
		NoShrink:  true,
		MakeCheck: func() CheckFunc {
			h := NewHarness(3)
			h.Bug = intermittent.BugEarlyFlip
			return h.CheckCommits
		},
	}
	_, err := s.Run()
	if err == nil {
		t.Fatal("the crash sweep missed the early-flip protocol bug")
	}
	t.Logf("caught: %v", err)
}

// TestCrashSweepCatchesSkipCRCBug is the meta-test that justifies the
// bit-granular failure model: BugSkipCRC — records trusted on a plausible
// length word, no CRC, arming write last — is provably crash-consistent
// when NV word writes are atomic, so the word-granular sweep (mask 0 only,
// exactly the old failure model) must certify it clean everywhere. The
// bit-granular sweep must then expose it: a torn slot-seal sequence write
// can blend the retiring slot's stale sequence with the new one into a
// number larger than both, electing a record out of order and orphaning
// the journal that carried the commit's Write-back values.
func TestCrashSweepCatchesSkipCRCBug(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("meta-sweep is exhaustive-coverage work; skipped under the race detector")
	}
	// A chain of WAR pairs against the minimal buffer configuration: each
	// consecutive read-then-write evicts the previous deferred write into
	// the full Write-back buffer, so dirty drains land on several
	// consecutive sequence numbers — including the pairs whose torn blend
	// exceeds both (old ≡ 2, 3 mod 4, mask alternating bits).
	p := Pattern{
		{Word: 0}, {Write: true, Word: 0, Val: 1}, {Word: 1}, {Write: true, Word: 1, Val: 2},
		{Word: 2}, {Write: true, Word: 2, Val: 3}, {Word: 3}, {Write: true, Word: 3, Val: 4},
		{Word: 0}, {Write: true, Word: 0, Val: 5}, {Word: 1}, {Write: true, Word: 1, Val: 6},
	}
	cfg := clank.Config{ReadFirst: 2, WriteFirst: 1, WriteBack: 1, Opts: clank.OptAll &^ clank.OptIgnoreText}

	wordGranular := NewHarness(12)
	wordGranular.Bug = intermittent.BugSkipCRC
	wordGranular.Masks = []uint32{0}
	if err := wordGranular.CheckCommits(p, 4, cfg, FailAt(-1)); err != nil {
		t.Fatalf("word-granular sweep exposed BugSkipCRC — it must be latent under atomic writes: %v", err)
	}

	bitGranular := NewHarness(12)
	bitGranular.Bug = intermittent.BugSkipCRC
	err := bitGranular.CheckCommits(p, 4, cfg, FailAt(-1))
	if err == nil {
		t.Fatal("the bit-granular sweep missed the CRC-less protocol bug")
	}
	t.Logf("caught: %v", err)
}

// FuzzCommitRecovery throws byte-derived (pattern, configuration, cut
// position) triples at the full pipeline: random dirty sets meet a random
// single commit-write cut, and the run must still match the continuous
// oracle on reads, outputs, and the final NV image. Cut positions beyond
// the run's commit-write count degrade to an uncut run, which still faces
// the full comparison.
func FuzzCommitRecovery(f *testing.F) {
	f.Add([]byte{0x09, 0x0B}, uint8(2), uint16(0))              // two dirty words, cut at the first journal write
	f.Add([]byte{0x00, 0x00, 0x01}, uint8(4), uint16(18))       // WAR + WB drain, cut right after the flip
	f.Add([]byte{0x09, 0x0B, 0x00, 0x02}, uint8(2), uint16(40)) // dirty drain + reads, cut mid phase two
	f.Add([]byte{0x01, 0x0B, 0x01}, uint8(0x95), uint16(19))    // custom config, cut at the first apply
	f.Add([]byte{0x00, 0x09, 0x00}, uint8(0xC1), uint16(500))   // APB custom config, cut beyond the run
	f.Add([]byte{0x09}, uint8(0), uint16(17))                   // plain RF, cut at the flip itself
	const maxOps = 12
	h := NewHarness(maxOps)
	f.Fuzz(func(t *testing.T, raw []byte, cfgSel uint8, cut uint16) {
		if len(raw) > maxOps {
			raw = raw[:maxOps]
		}
		p, cfg, _, ok := fuzzTriple(raw, cfgSel, uint8(cut))
		if !ok {
			return
		}
		if err := h.CheckTear(p, 4, cfg, int(cut), 0); err != nil {
			t.Fatalf("pattern %v config %s cut %d: %v", p, cfg, cut, err)
		}
	})
}

// FuzzTornCommit is FuzzCommitRecovery's bit-granular twin: the fuzzer
// picks the tear mask too, so the failing NV write lands an arbitrary
// subset of its bits — any undetected blend the CRC seals let through
// shows up as an oracle divergence.
func FuzzTornCommit(f *testing.F) {
	f.Add([]byte{0x09, 0x0B}, uint8(2), uint16(5), uint32(0x55555555))        // journal write torn odd-bits
	f.Add([]byte{0x00, 0x00, 0x01}, uint8(4), uint16(18), uint32(0xFFFF0000)) // slot seal torn half-word
	f.Add([]byte{0x09, 0x0B, 0x00, 0x02}, uint8(2), uint16(40), uint32(1))    // phase two torn single bit
	f.Add([]byte{0x01, 0x0B, 0x01}, uint8(0x95), uint16(19), uint32(0xAAAAAAAA))
	f.Add([]byte{0x09}, uint8(0), uint16(17), uint32(0x000000FF))
	const maxOps = 12
	h := NewHarness(maxOps)
	f.Fuzz(func(t *testing.T, raw []byte, cfgSel uint8, cut uint16, mask uint32) {
		if len(raw) > maxOps {
			raw = raw[:maxOps]
		}
		p, cfg, _, ok := fuzzTriple(raw, cfgSel, uint8(cut))
		if !ok {
			return
		}
		if err := h.CheckTear(p, 4, cfg, int(cut), mask); err != nil {
			t.Fatalf("pattern %v config %s cut %d mask %#x: %v", p, cfg, cut, mask, err)
		}
	})
}
