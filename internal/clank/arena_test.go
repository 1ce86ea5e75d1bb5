package clank

import (
	"math/rand"
	"testing"
)

// arenaTestConfigs covers the branch space the pre-classified entry points
// and the arena construction must agree on: exemptions, TEXT windows,
// every optimization mask, filterless mode, and a map-indexed buffer.
func arenaTestConfigs() []Config {
	exempt := map[uint32]bool{0x40: true, 0x44: true, 0x80: true}
	return []Config{
		{ReadFirst: 1},
		{ReadFirst: 4, WriteFirst: 2, Opts: OptAll},
		{ReadFirst: 4, WriteFirst: 2, WriteBack: 2, Opts: OptAll,
			TextStart: 0x0, TextEnd: 0x3d, ExemptPCs: exempt},
		{ReadFirst: 8, WriteFirst: 4, WriteBack: 4, AddrPrefix: 2, PrefixLowBits: 4,
			Opts: OptIgnoreFalseWrites | OptIgnoreText, TextStart: 0x10, TextEnd: 0x30},
		{ReadFirst: 2, WriteBack: 1, Opts: OptLatestCheckpoint | OptRemoveDuplicates,
			ExemptPCs: exempt},
		{ReadFirst: 3, WriteFirst: 1, Opts: OptNoWFOverflow, DisableFilter: true},
		{ReadFirst: Unlimited, WriteFirst: Unlimited, WriteBack: Unlimited,
			Opts: OptAll &^ OptIgnoreText},
	}
}

// driveBoth feeds the same pseudo-random access stream to a and b, a via
// the pc-classified entry points and b via the pre-classified ones, and
// fails on the first divergence in outcome or observable detector state.
func driveBoth(t *testing.T, a, b *Clank, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := a.Config()
	lo, hi, active := b.Config().TextWords()
	for i := 0; i < 4000; i++ {
		word := uint32(rng.Intn(24))
		pc := uint32(rng.Intn(64)) * 4
		value := uint32(rng.Intn(8))
		memValue := uint32(rng.Intn(8))
		exempt := cfg.ExemptPCs != nil && cfg.ExemptPCs[pc]
		inText := active && word >= lo && word < hi
		var oa, ob Outcome
		if rng.Intn(2) == 0 {
			oa = a.Read(word, memValue, pc)
			ob = b.ReadPre(word, memValue, exempt, inText)
		} else {
			oa = a.Write(word, value, memValue, pc)
			ob = b.WritePre(word, value, memValue, exempt, inText)
		}
		if oa != ob {
			t.Fatalf("step %d: pc path %+v, pre path %+v", i, oa, ob)
		}
		if a.WBDirty() != b.WBDirty() || a.Untracked() != b.Untracked() ||
			a.SectionAccesses() != b.SectionAccesses() {
			t.Fatalf("step %d: state diverged (dirty %d/%d untracked %v/%v accesses %d/%d)",
				i, a.WBDirty(), b.WBDirty(), a.Untracked(), b.Untracked(),
				a.SectionAccesses(), b.SectionAccesses())
		}
		if oa.NeedCheckpoint || rng.Intn(97) == 0 {
			da := a.DirtyEntries(nil)
			db := b.DirtyEntries(nil)
			if len(da) != len(db) {
				t.Fatalf("step %d: dirty sets differ: %v vs %v", i, da, db)
			}
			for j := range da {
				if da[j] != db[j] {
					t.Fatalf("step %d: dirty sets differ: %v vs %v", i, da, db)
				}
			}
			a.Reset()
			b.Reset()
		}
	}
}

// TestPreClassifiedMatchesPC proves ReadPre/WritePre are Read/Write with
// the classification hoisted out: same outcomes, same state, access for
// access.
func TestPreClassifiedMatchesPC(t *testing.T) {
	for ci, cfg := range arenaTestConfigs() {
		driveBoth(t, New(cfg), New(cfg), int64(1000+ci))
	}
}

// TestArenaMatchesNew proves each arena slot behaves exactly like an
// individually constructed detector, with the whole config set sharing
// one arena so the carved backings are exercised side by side.
func TestArenaMatchesNew(t *testing.T) {
	cfgs := arenaTestConfigs()
	ks, err := NewArena(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != len(cfgs) {
		t.Fatalf("arena has %d slots, want %d", len(ks), len(cfgs))
	}
	for ci, cfg := range cfgs {
		driveBoth(t, New(cfg), &ks[ci], int64(2000+ci))
	}
}

// TestArenaRejectsInvalid propagates configuration errors.
func TestArenaRejectsInvalid(t *testing.T) {
	if _, err := NewArena([]Config{{ReadFirst: 4}, {}}); err == nil {
		t.Fatal("arena accepted a config with no Read-first Buffer")
	}
}
