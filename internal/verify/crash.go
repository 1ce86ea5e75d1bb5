package verify

import (
	"errors"
	"fmt"

	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/intermittent"
	"repro/internal/scheme"
)

// Crash-consistency mode: where the differential harness places power
// failures at committed data accesses, this harness places them inside the
// checkpoint routine itself — at every individual non-volatile word write
// of the two-phase commit (journal entries and seal, slot record and seal,
// home-location applies, the phase-2 checkpoint, the journal clear) and of
// the reboot-time recovery replay. Failures are bit-granular: each cut
// position is crossed with a set of tear masks, and the failing write lands
// exactly the masked bits (mask 0: a cut before the cell changed; ^0: a cut
// immediately after a complete write; anything else: a mid-word blend of
// old and new bits). For each (pattern, configuration) the harness first
// runs the lowered program on continuous power to count the protocol's NV
// writes, then re-runs the full armsim+intermittent pipeline once per
// (cut position × mask), demanding oracle-exact reads, outputs, and final
// NV image every time — and that no single fault ever forces the degraded
// fresh-boot path.
//
// Exhaustiveness: on continuous power the pipeline is deterministic, so a
// run cut at write n is identical to the baseline up to that write — the
// baseline's Stats.CommitWrites therefore enumerates every reachable
// single-cut boundary, including the recovery writes a cut itself induces
// (they get indices above the baseline's count and are covered by the
// dedicated double-cut tests at the intermittent layer). The mask set is
// adversarial, not exhaustive: 2^32 masks per position is unreachable, so
// the defaults target the protocol's weak points — byte and half-word
// lanes, and the alternating patterns that can blend two sequence numbers
// into a larger one.
type CrashHarness struct {
	// Bug injects a deliberately broken commit protocol (meta-tests: the
	// sweep must catch it). Production sweeps leave it at BugNone.
	Bug intermittent.CommitBug
	// Masks is the tear-mask set crossed with every cut position; nil
	// selects DefaultTearMasks. A word-granular sweep (the old atomic
	// model) is Masks = []uint32{0}.
	Masks []uint32
	// Scheme selects the runtime scheme the machines run under (nil =
	// Clank). All schemes share the commit program, so the sweep's fault
	// injector exercises the same torn-write space for each.
	Scheme scheme.Factory

	maxOps   int
	machines map[string]*intermittent.Machine
	cut      int    // commit write to fail at; -1 = baseline (no fault)
	mask     uint32 // bits that land at the failing write
}

// DefaultTearMasks is the standard adversarial tear set: clean cut-before,
// clean cut-after, a byte lane, a half-word lane, and the two alternating
// blends.
var DefaultTearMasks = []uint32{
	0, 0xFFFFFFFF, 0x000000FF, 0xFFFF0000, 0x55555555, 0xAAAAAAAA,
}

// NewCrashHarness returns a harness for patterns of up to maxOps ops. Like
// DiffHarness it caches one machine per configuration and is not safe for
// concurrent use — the sweep builds one per worker via Sweep.MakeCheck.
func NewCrashHarness(maxOps int) *CrashHarness {
	return &CrashHarness{maxOps: maxOps, machines: make(map[string]*intermittent.Machine), cut: -1}
}

func (h *CrashHarness) faultHook(w int) (bool, uint32) { return w == h.cut, h.mask }

func (h *CrashHarness) masks() []uint32 {
	if h.Masks != nil {
		return h.Masks
	}
	return DefaultTearMasks
}

// Check runs the full (cut × mask) sweep for one (pattern, configuration).
// The schedule argument exists to satisfy CheckFunc and is ignored: the
// harness generates its own failure placements.
func (h *CrashHarness) Check(p Pattern, words int, cfg clank.Config, _ Schedule) error {
	if err := lowerable(p, words, h.maxOps); err != nil {
		return err
	}
	img := buildDiffImage(p, h.maxOps)
	m, err := h.machine(cfg, img)
	if err != nil {
		return err
	}
	base, err := h.runCut(m, img, p, words, cfg, -1, 0)
	if err != nil {
		return err
	}
	for n := 0; n < base.CommitWrites; n++ {
		for _, mask := range h.masks() {
			if err := m.Reboot(img); err != nil {
				return err
			}
			if _, err := h.runCut(m, img, p, words, cfg, n, mask); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckCut runs a single word-granular cut position (or none, if the
// position exceeds the run's commit-write count) — kept for the original
// commit-recovery fuzz corpus; CheckTear is the bit-granular entry point.
func (h *CrashHarness) CheckCut(p Pattern, words int, cfg clank.Config, cut int) error {
	return h.CheckTear(p, words, cfg, cut, 0)
}

// CheckTear runs a single (cut position, tear mask) — the fuzzing entry
// point, where both the position and the landed-bits mask come from the
// fuzzer rather than an exhaustive loop.
func (h *CrashHarness) CheckTear(p Pattern, words int, cfg clank.Config, cut int, mask uint32) error {
	if err := lowerable(p, words, h.maxOps); err != nil {
		return err
	}
	img := buildDiffImage(p, h.maxOps)
	m, err := h.machine(cfg, img)
	if err != nil {
		return err
	}
	_, err = h.runCut(m, img, p, words, cfg, cut, mask)
	return err
}

// runCut executes one pipeline run with the fault injector tearing commit
// write n with the given mask (n < 0: no fault) and compares it against the
// continuous oracle. A single injected fault must never force the degraded
// fresh-boot path: the retiring slot record is intact until the new one has
// sealed, so detect-and-recover always has a valid checkpoint to fall back
// on.
func (h *CrashHarness) runCut(m *intermittent.Machine, img *ccc.Image, p Pattern, words int, cfg clank.Config, n int, mask uint32) (intermittent.Stats, error) {
	h.cut, h.mask = n, mask
	stats, err := m.Run()
	h.cut, h.mask = -1, 0
	switch {
	case err != nil:
	case !stats.Completed:
		err = errors.New("run did not complete")
	case n >= 0 && n < stats.CommitWrites && stats.TornCommits == 0:
		err = errors.New("cut did not fire")
	case stats.DegradedBoots != 0:
		err = fmt.Errorf("single fault forced %d degraded boots", stats.DegradedBoots)
	default:
		err = compareAgainstOracle(stats, m, p, words)
	}
	if err != nil {
		// Described only on failure: a sweep runs every cut of every
		// pattern, and formatting the configuration for each passing one
		// was ~8% of its time.
		return stats, fmt.Errorf("crash config %s cut %d/%d mask %#x: %w", cfg, n, stats.CommitWrites, mask, err)
	}
	return stats, nil
}

// machine returns the cached per-configuration machine rebooted into img.
func (h *CrashHarness) machine(cfg clank.Config, img *ccc.Image) (*intermittent.Machine, error) {
	key := fmt.Sprintf("%+v", cfg)
	if h.Scheme != nil {
		key = h.Scheme.Name() + " " + key
	}
	if m, ok := h.machines[key]; ok {
		return m, m.Reboot(img)
	}
	tcfg, err := translateDiffConfig(cfg, h.maxOps)
	if err != nil {
		return nil, err
	}
	m, err := intermittent.NewMachine(img, intermittent.Options{
		Config:    tcfg,
		Scheme:    h.Scheme,
		Verify:    true,
		NVFault:   h.faultHook,
		CommitBug: h.Bug,
	})
	if err != nil {
		return nil, err
	}
	h.machines[key] = m
	return m, nil
}
