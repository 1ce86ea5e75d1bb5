package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/clank"
)

// suppressViolation is the deliberately broken detector of the meta-tests:
// it silently drops every ReasonViolation checkpoint demand, letting the
// violating write straight through to non-volatile memory — the "skip the
// idempotency trap on one path" class of hardware bug. It treats addresses
// and values only through the wrapped detector, so it respects the same
// symmetry classes as the real hardware (a requirement for the
// prune-soundness meta-test to be meaningful).
type suppressViolation struct {
	Detector
}

func (d suppressViolation) Write(word, value, memValue, pc uint32) clank.Outcome {
	out := d.Detector.Write(word, value, memValue, pc)
	if out.NeedCheckpoint && out.Reason == clank.ReasonViolation {
		return clank.Outcome{}
	}
	return out
}

// buggyChecker builds the mini-machine around the broken detector.
func buggyChecker() Checker {
	return Checker{NewDetector: func(cfg clank.Config) Detector {
		return suppressViolation{clank.New(cfg)}
	}}
}

// TestEnumerateCanonicalComplete proves the canonical enumeration covers
// the whole space: canonicalizing any naively enumerated pattern lands on a
// pattern the canonical enumeration visits, and everything it visits is
// canonical (and a fixpoint of Canonicalize).
func TestEnumerateCanonicalComplete(t *testing.T) {
	const n, words, vals = 4, 3, 2
	for _, sym := range []Symmetry{
		FullSymmetry(words),
		ConfigSymmetry(clank.Config{ReadFirst: 1, AddrPrefix: 1, PrefixLowBits: 1}, words),
		ConfigSymmetry(clank.Config{ReadFirst: 1, Opts: clank.OptAll, TextStart: 0, TextEnd: 4}, words),
	} {
		canon := make(map[string]bool)
		if err := EnumerateCanonical(n, words, vals, sym, func(p Pattern) error {
			if !sym.Canonical(p, vals) {
				return fmt.Errorf("emitted non-canonical pattern %v", p)
			}
			if c := sym.Canonicalize(p); c.String() != p.String() {
				return fmt.Errorf("canonical pattern %v not a Canonicalize fixpoint (got %v)", p, c)
			}
			canon[p.String()] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		naive := 0
		if err := EnumeratePatterns(n, words, vals, func(p Pattern) error {
			naive++
			if c := sym.Canonicalize(p); !canon[c.String()] {
				return fmt.Errorf("pattern %v canonicalizes to %v, which the canonical enumeration missed", p, c)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(canon) >= naive {
			t.Errorf("symmetry %v pruned nothing: %d canonical vs %d naive", sym.key(), len(canon), naive)
		}
		t.Logf("symmetry %v: %d canonical of %d naive patterns", sym.key(), len(canon), naive)
	}
}

// TestCanonicalizeVerdictInvariant is the empirical half of the soundness
// argument: for a fault-injected detector (so both verdicts occur), a
// pattern and its canonical representative must agree on pass/fail under
// every standard configuration and schedule — including the APB and TEXT
// configurations whose symmetry is coarser than full permutation.
func TestCanonicalizeVerdictInvariant(t *testing.T) {
	const words, vals = 4, 2
	rng := rand.New(rand.NewSource(42))
	checker := buggyChecker()
	configs := StandardConfigs()
	iters := 400
	if testing.Short() {
		iters = 100
	}
	for it := 0; it < iters; it++ {
		n := 1 + rng.Intn(7)
		p := make(Pattern, n)
		for i := range p {
			if rng.Intn(2) == 0 {
				p[i] = Op{Word: uint32(rng.Intn(words))}
			} else {
				p[i] = Op{Write: true, Word: uint32(rng.Intn(words)), Val: uint32(1 + rng.Intn(vals))}
			}
		}
		cfg := configs[rng.Intn(len(configs))]
		sym := ConfigSymmetry(cfg, words)
		c := sym.Canonicalize(p)
		for f := -1; f < n+2; f++ {
			errP := checker.Check(p, words, cfg, FailAt(f))
			errC := checker.Check(c, words, cfg, FailAt(f))
			if (errP == nil) != (errC == nil) {
				t.Fatalf("verdict changed under canonicalization: %v -> %v (config %s, fail@%d): %v / %v",
					p, c, cfg, f, errP, errC)
			}
		}
	}
}

// TestPruneSoundness is the meta-test the tentpole demands: at the old
// exhaustive bound, with a violation deliberately injected into the
// detector, the pruned sweep must find exactly the failures the unpruned
// sweep finds — every unpruned finding canonicalizes to a pruned one, and
// every pruned finding is verbatim among the unpruned.
func TestPruneSoundness(t *testing.T) {
	n := 5
	if testing.Short() {
		n = 4
	}
	const words, vals = 2, 2
	// One configuration per symmetry shape, so all class structures are
	// exercised without sweeping all 39 configurations twice.
	configs := []clank.Config{
		{ReadFirst: 1},
		{ReadFirst: 2, WriteFirst: 1, WriteBack: 1, AddrPrefix: 1, PrefixLowBits: 1},
		{ReadFirst: 1, WriteBack: 1, Opts: clank.OptAll, TextStart: 0, TextEnd: 4},
	}

	run := func(canonical bool) []Finding {
		s := &Sweep{
			N: n, Words: words, Vals: vals,
			Configs:    configs,
			Canonical:  canonical,
			Workers:    2,
			MakeCheck:  func() CheckFunc { return buggyChecker().Check },
			CollectAll: true,
			NoShrink:   true,
		}
		stats, err := s.Run()
		if err == nil {
			t.Fatal("injected bug produced no findings")
		}
		return stats.Findings
	}
	unpruned := run(false)
	pruned := run(true)
	if len(pruned) == 0 || len(unpruned) < len(pruned) {
		t.Fatalf("finding counts look wrong: %d unpruned, %d pruned", len(unpruned), len(pruned))
	}

	key := func(p Pattern, cfg clank.Config, sched Schedule) string {
		return fmt.Sprintf("%v|%v|%v", p, cfg, sched)
	}
	prunedSet := make(map[string]bool, len(pruned))
	for _, f := range pruned {
		prunedSet[key(f.Pattern, f.Config, f.Schedule)] = true
	}
	unprunedSet := make(map[string]bool, len(unpruned))
	for _, f := range unpruned {
		unprunedSet[key(f.Pattern, f.Config, f.Schedule)] = true
	}

	for _, f := range pruned {
		if !unprunedSet[key(f.Pattern, f.Config, f.Schedule)] {
			t.Fatalf("pruned sweep found %v under %s %v, which the unpruned sweep missed",
				f.Pattern, f.Config, f.Schedule)
		}
	}
	missed := 0
	for _, f := range unpruned {
		c := ConfigSymmetry(f.Config, words).Canonicalize(f.Pattern)
		if !prunedSet[key(c, f.Config, f.Schedule)] {
			missed++
			if missed <= 3 {
				t.Errorf("unpruned finding %v (canonical %v) under %s %v has no pruned counterpart",
					f.Pattern, c, f.Config, f.Schedule)
			}
		}
	}
	if missed > 0 {
		t.Fatalf("pruning lost %d of %d findings", missed, len(unpruned))
	}
	t.Logf("prune-soundness at n=%d: %d unpruned findings all covered by %d pruned findings",
		n, len(unpruned), len(pruned))
}
