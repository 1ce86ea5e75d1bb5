package verify

import (
	"errors"
	"fmt"

	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/intermittent"
	"repro/internal/scheme"
)

// Harness runs lowered patterns (differential.go) through the full
// armsim+intermittent pipeline under a runtime scheme and holds every run
// to the continuous oracle: the committed output stream must equal the
// oracle's read history, every pattern word of the final NV image must
// match the oracle's final store, the run must complete, and no boot may
// take the degraded fresh-boot path. It has two fault models, one per
// entry point:
//
//   - Check is full-stack differential mode: the mini-machine runs the
//     triple first, then the pipeline runs it with power cut at the
//     committed data accesses the Schedule picks.
//   - CheckCommits is crash-consistency mode: power is cut inside the
//     checkpoint routine itself, at every individual NV word write of the
//     two-phase commit (journal entries and seal, slot record and seal,
//     home-location applies, the phase-2 checkpoint, the journal clear)
//     and of the reboot-time recovery replay. Cuts are bit-granular: each
//     position is crossed with every tear mask, and the failing write
//     lands exactly the masked bits (mask 0: a cut before the cell
//     changed; ^0: a cut immediately after a complete write; anything
//     else: a mid-word blend of old and new bits). CheckTear runs one
//     (cut, mask) of that sweep for the fuzzers.
//
// Exhaustiveness of CheckCommits: on continuous power the pipeline is
// deterministic, so a run cut at write n is identical to the baseline up to
// that write — the baseline's Stats.CommitWrites therefore enumerates every
// reachable single-cut boundary, including the recovery writes a cut itself
// induces (they get indices above the baseline's count and are covered by
// the dedicated double-cut tests at the intermittent layer). The mask set
// is adversarial, not exhaustive: 2^32 masks per position is unreachable,
// so the defaults target the protocol's weak points — byte and half-word
// lanes, and the alternating patterns that can blend two sequence numbers
// into a larger one.
//
// One harness caches one machine per (scheme, configuration) — a machine is
// ~1.8 MB of decode cache and memory; Reboot reuses it across patterns,
// restoring only the bytes the last run changed and keeping every decoded
// run over the shared code layout. Each machine carries the harness's
// access hook, idle while no schedule is set, and run installs the
// commit-write tear hook for the runs it tears; so a harness is not safe
// for concurrent use: the sweep builds one per worker via Sweep.MakeCheck.
type Harness struct {
	// Scheme selects the runtime scheme the machines run under (nil =
	// Clank). All schemes share the commit program, so the commit sweep
	// exercises the same torn-write space for each.
	Scheme scheme.Factory
	// Bug injects a deliberately broken commit protocol (meta-tests: the
	// sweep must catch it). Production sweeps leave it at BugNone.
	Bug intermittent.CommitBug
	// Masks is the tear-mask set CheckCommits crosses with every cut
	// position; nil selects DefaultTearMasks. A word-granular sweep (the
	// old atomic model) is Masks = []uint32{0}.
	Masks []uint32

	maxOps   int
	machines map[string]*intermittent.Machine

	f           fault // the current run's fault
	step, fires int   // pattern-region accesses and access cuts so far
}

// DefaultTearMasks is the standard adversarial tear set: clean cut-before,
// clean cut-after, a byte lane, a half-word lane, and the two alternating
// blends.
var DefaultTearMasks = []uint32{
	0, 0xFFFFFFFF, 0x000000FF, 0xFFFF0000, 0x55555555, 0xAAAAAAAA,
}

// NewHarness returns a harness for patterns of up to maxOps ops.
func NewHarness(maxOps int) *Harness {
	return &Harness{maxOps: maxOps, machines: make(map[string]*intermittent.Machine)}
}

// fault is one run's injected failure: power cuts at the pattern-region
// accesses sched picks (nil: none), or a tear of commit write cut landing
// the bits of mask (cut < 0: none).
type fault struct {
	sched Schedule
	cut   int
	mask  uint32
}

var noFault = fault{cut: -1}

// accessHook is the FailAfterAccess hook: it counts committed
// pattern-region accesses, mirroring the mini-machine's step counter (log,
// epilogue, and output traffic is not counted), and cuts power where the
// schedule fires.
func (h *Harness) accessHook(addr uint32, write bool) bool {
	if h.f.sched == nil || addr < diffDataBase || addr >= diffLogBase {
		return false
	}
	fire := h.f.sched.Fail(h.step)
	h.step++
	if fire {
		h.fires++
		if h.fires > maxRestarts {
			// Non-terminating schedule (e.g. FailEvery{1}): stop firing so
			// the run completes, exactly as the mini-machine bounds
			// liveness; the completed run still faces the full comparison.
			return false
		}
	}
	return fire
}

// tearHook is the SetNVFault hook: it tears commit write h.f.cut.
func (h *Harness) tearHook(w int) (bool, uint32) { return w == h.f.cut, h.f.mask }

// Check verifies one triple on the mini-machine, then on the pipeline with
// power cut at the committed accesses sched picks.
func (h *Harness) Check(p Pattern, words int, cfg clank.Config, sched Schedule) error {
	if err := Check(p, words, cfg, sched); err != nil {
		return err
	}
	l, err := h.load(p, words, cfg)
	if err != nil {
		return err
	}
	_, err = h.run(l, fault{sched: sched, cut: -1})
	return err
}

// CheckCommits runs a baseline on continuous power, then one run per (cut
// position × mask) over every commit write the baseline made. The schedule
// argument exists to satisfy CheckFunc and is ignored: the harness
// generates its own failure placements.
func (h *Harness) CheckCommits(p Pattern, words int, cfg clank.Config, _ Schedule) error {
	l, err := h.load(p, words, cfg)
	if err != nil {
		return err
	}
	base, err := h.run(l, noFault)
	if err != nil {
		return err
	}
	masks := h.Masks
	if masks == nil {
		masks = DefaultTearMasks
	}
	for n := 0; n < base.CommitWrites; n++ {
		for _, mask := range masks {
			if err := l.m.Reboot(l.img); err != nil {
				return err
			}
			if _, err := h.run(l, fault{cut: n, mask: mask}); err != nil {
				return err
			}
		}
	}
	return nil
}

// CheckTear runs a single (cut position, tear mask) — the fuzzing entry
// point, where both the position and the landed-bits mask come from the
// fuzzer rather than an exhaustive loop. Mask 0 is a word-granular cut
// (no bit of the failing write lands); a position beyond the run's
// commit-write count runs uncut.
func (h *Harness) CheckTear(p Pattern, words int, cfg clank.Config, cut int, mask uint32) error {
	l, err := h.load(p, words, cfg)
	if err != nil {
		return err
	}
	_, err = h.run(l, fault{cut: cut, mask: mask})
	return err
}

// lowered is one pattern booted on its configuration's machine, with the
// oracle every run of it is compared against.
type lowered struct {
	m            *intermittent.Machine
	img          *ccc.Image
	cfg          clank.Config
	reads, final []uint32
}

// load lowers p, boots the cached (scheme, configuration) machine into it,
// and computes the oracle once for every run of the check.
func (h *Harness) load(p Pattern, words int, cfg clank.Config) (*lowered, error) {
	if err := lowerable(p, words, h.maxOps); err != nil {
		return nil, err
	}
	img := buildDiffImage(p, h.maxOps)
	m, err := h.machine(cfg, img)
	if err != nil {
		return nil, err
	}
	reads, final := Oracle(p, words)
	return &lowered{m: m, img: img, cfg: cfg, reads: reads, final: final}, nil
}

// run executes one pipeline run with fault f armed and checks it against
// the oracle. A cut inside the run's commit writes must actually interrupt
// a commit. No fault may force the degraded fresh-boot path: the retiring
// slot record is intact until the new one has sealed, so detect-and-recover
// always has a valid checkpoint to fall back on. Boot-time decodes that
// find a corrupt record are not faults: phase 2 invalidates the retiring
// slot on purpose (see Stats.DetectedCorrupt).
func (h *Harness) run(l *lowered, f fault) (intermittent.Stats, error) {
	h.f, h.step, h.fires = f, 0, 0
	if f.cut >= 0 {
		// Installed only for the run it tears: an idle hook consulted at
		// every commit write cost the access-cut sweep ~4%.
		l.m.SetNVFault(h.tearHook)
	}
	stats, err := l.m.Run()
	l.m.SetNVFault(nil)
	switch {
	case err != nil:
	case !stats.Completed:
		err = errors.New("run did not complete")
	case f.cut >= 0 && f.cut < stats.CommitWrites && stats.TornCommits == 0:
		err = errors.New("cut did not fire")
	case stats.DegradedBoots != 0:
		err = fmt.Errorf("%d degraded boots", stats.DegradedBoots)
	default:
		err = compareAgainstOracle(stats, l)
	}
	if err != nil {
		// Described only on failure: a sweep runs every cut of every
		// pattern, and formatting the configuration for each passing one
		// was ~8% of its time.
		what := fmt.Sprintf("cut %d/%d mask %#x", f.cut, stats.CommitWrites, f.mask)
		if f.sched != nil {
			what = fmt.Sprintf("sched %v", f.sched)
		}
		return stats, fmt.Errorf("full-stack config %s %s: %w", l.cfg, what, err)
	}
	return stats, nil
}

// compareAgainstOracle checks a completed pipeline run against the
// continuous oracle: the committed output stream must equal the oracle's
// read history exactly (the output-commit bracketing permits no stuttering
// on these programs), and every pattern word of the final NV image must
// match the oracle's final store.
func compareAgainstOracle(stats intermittent.Stats, l *lowered) error {
	if len(stats.Outputs) != len(l.reads) {
		return fmt.Errorf("%d outputs, oracle has %d reads", len(stats.Outputs), len(l.reads))
	}
	for j, want := range l.reads {
		if stats.Outputs[j] != want {
			return fmt.Errorf("output %d = %d, oracle read is %d", j, stats.Outputs[j], want)
		}
	}
	for w, want := range l.final {
		if got := l.m.MemWord(diffDataBase + uint32(w)*4); got != want {
			return fmt.Errorf("final mem[%d] = %d, oracle says %d", w, got, want)
		}
	}
	return nil
}

// machine returns the cached (scheme, configuration) machine rebooted into
// img, building it with the access hook on first use.
func (h *Harness) machine(cfg clank.Config, img *ccc.Image) (*intermittent.Machine, error) {
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
		Config:          tcfg,
		Scheme:          h.Scheme,
		Verify:          true,
		FailAfterAccess: h.accessHook,
		CommitBug:       h.Bug,
	})
	if err != nil {
		return nil, err
	}
	h.machines[key] = m
	return m, nil
}
