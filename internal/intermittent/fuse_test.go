package intermittent

import (
	"reflect"
	"testing"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/power"
)

// The superinstruction engine must be invisible to the whole intermittent
// stack: identical checkpoints, rollbacks, watchdog firings, commit
// protocol traffic, outputs, and final NV memory as runs of length one
// (DisableFusion). These tests run the same image under the same deterministic supply
// in three modes and require deep-equal Stats — any divergence in when a
// monitored access is seen, when a budget boundary lands, or what flags a
// checkpoint captures shows up as a counter, reason-map, or output
// difference. The third mode also clears the CPU's TEXT window, so no
// literal load is pre-classified at decode time: equal Stats pin that the
// classification cannot be observed on the Bus path, where both kinds of
// literal load reach the same Load.

// fuseModeNames are the three engine configurations, strongest first; the
// last is the baseline the others are compared against.
var fuseModeNames = []string{"fused", "predecode", "predecode-notext"}

// runModes executes the image once per engine mode with identically seeded
// supplies and returns the Stats plus a final-NV-memory snapshot. mkOpts
// must build Options from scratch on every call: a Supply carries rng
// state, so the modes need three independent, identically seeded supplies
// rather than three handles on one stream.
func runModes(t *testing.T, src string, mkOpts func() Options) (stats []Stats, mems [][]byte) {
	t.Helper()
	return runImageModes(t, compileTest(t, src), mkOpts)
}

// runImageModes is runModes for an already-built image.
func runImageModes(t *testing.T, img *ccc.Image, mkOpts func() Options) (stats []Stats, mems [][]byte) {
	t.Helper()
	for _, name := range fuseModeNames {
		mode := name
		m, err := NewMachine(img, mkOpts())
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if mode != "fused" {
			m.cpu.DisableFusion()
		}
		if mode == "predecode-notext" {
			m.cpu.SetTextWindow(0, 0)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("%s run: %v", mode, err)
		}
		if !st.Completed {
			t.Fatalf("%s did not complete", mode)
		}
		mem := make([]byte, 0, armsim.MemSize)
		for a := uint32(0); a < armsim.MemSize; a += 4 {
			w := m.MemWord(a)
			mem = append(mem, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		}
		stats = append(stats, st)
		mems = append(mems, mem)
	}
	return stats, mems
}

func requireIdenticalModes(t *testing.T, label string, stats []Stats, mems [][]byte) {
	t.Helper()
	ref := len(stats) - 1
	base := fuseModeNames[ref]
	for i := 0; i < ref; i++ {
		if !reflect.DeepEqual(stats[i], stats[ref]) {
			t.Errorf("%s: %s Stats diverge from %s:\n  %+v\n  %+v",
				label, fuseModeNames[i], base, stats[i], stats[ref])
		}
		for a := range mems[i] {
			if mems[i][a] != mems[ref][a] {
				t.Errorf("%s: %s NV memory diverges from %s at %#x", label, fuseModeNames[i], base, a)
				break
			}
		}
	}
}

// TestFusedIntermittentDifferentialAlways pins transparency on an
// outage-free run: every Clank-driven checkpoint (buffer pressure, output
// brackets) must land identically.
func TestFusedIntermittentDifferentialAlways(t *testing.T) {
	stats, mems := runModes(t, testProgram, func() Options {
		return Options{
			Config:          clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll},
			Supply:          power.Always{},
			ProgressDefault: 30_000,
			Verify:          true,
		}
	})
	requireIdenticalModes(t, "always-on", stats, mems)
}

// TestFusedIntermittentDifferentialFailures pins transparency under a
// deterministic randomized supply: power failures land mid-run (the
// checkpointed PC is frequently inside a fused block, so resumption builds
// and enters suffix runs), rollbacks re-execute fused work, and the
// watchdogs interleave with budget-gated block entry. Identical Stats
// means every one of those boundaries matched runs of length one
// cycle-for-cycle.
func TestFusedIntermittentDifferentialFailures(t *testing.T) {
	for _, seed := range []int64{3, 44} {
		stats, mems := runModes(t, testProgram, func() Options {
			return Options{
				Config:          clank.Config{ReadFirst: 16, WriteFirst: 8, WriteBack: 4, Opts: clank.OptAll},
				Supply:          power.NewSupply(power.Exponential{Mean: 9_000, Min: 500}, seed),
				PerfWatchdog:    25_000,
				ProgressDefault: 30_000,
				Verify:          true,
			}
		})
		if stats[0].Restarts == 0 {
			t.Fatalf("seed %d: supply never failed; test exercises nothing", seed)
		}
		requireIdenticalModes(t, "exponential supply", stats, mems)
	}
}

// TestFusedPowerFailMidRunResumes cuts power on fixed odd-length budgets
// chosen to land inside fused blocks (not at block boundaries), and checks
// the run still completes with outputs identical to a continuous
// execution. This pins the resume path specifically: after a reboot the
// checkpointed PC is an interior instruction of a previously fused run,
// and execution must rebuild a suffix run (or single-step) from there
// without skipping or replaying an instruction.
func TestFusedPowerFailMidRunResumes(t *testing.T) {
	img := compileTest(t, testProgram)
	contOut, _, _ := continuousRun(t, img)
	for _, onCycles := range []uint64{777, 1913, 5333} {
		m, err := NewMachine(img, Options{
			Config:          clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll},
			Supply:          power.NewSupply(power.Fixed{Cycles: onCycles}, 1),
			ProgressDefault: 30_000,
			Verify:          true,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("on=%d: %v", onCycles, err)
		}
		if !st.Completed {
			t.Fatalf("on=%d: did not complete", onCycles)
		}
		if st.Restarts == 0 {
			t.Fatalf("on=%d: no restarts; budget never cut a run", onCycles)
		}
		if !outputsEquivalent(contOut, st.Outputs) {
			t.Errorf("on=%d: outputs diverge from continuous run", onCycles)
		}
	}
}

// outputLoopImage hand-assembles a loop whose output store shares a fused
// run with ALU work and whose output address never comes from a literal
// load (ccc always loads it from the pool, a section access that hides
// the case). Layout (entry = 8):
//
//	 8: MOVS r6, #1
//	10: LSLS r6, r6, #30   ; r6 = output port (0x40000000)
//	12: MOVS r0, #5
//	14: MOVS r2, #0
//	16: loop: ADDS r2, #1
//	18: STR r2, [r6]       ; output r2
//	20: SUBS r0, #1
//	22: BNE loop           ; chains straight into ADDS; STR
//	24: BKPT
func outputLoopImage() *ccc.Image {
	return thumbImage(
		movImm8(6, 1),
		lslImm(6, 6, 30),
		movImm8(0, 5),
		movImm8(2, 0),
		addImm8(2, 1),
		strImm(2, 6, 0),
		subImm8(0, 1),
		thumbBNE(22, 16),
		thumbBKPT,
	)
}

// TestFusedOutputBracketing pins output bracketing when the cycles since
// the last checkpoint were all retired earlier in the same fused call: the
// SUBS/BNE/ADDS leading up to each output store are not yet charged to
// sinceCkpt when the store runs, yet they are work the output must not be
// emitted on top of. Every output therefore costs a leading and a trailing
// checkpoint in every engine — 2 per iteration plus the final commit.
func TestFusedOutputBracketing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		supply func() power.Source
	}{
		{"always-on", func() power.Source { return power.Always{} }},
		{"exponential", func() power.Source {
			return power.NewSupply(power.Exponential{Mean: 150, Min: 90}, 5)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats, mems := runImageModes(t, outputLoopImage(), func() Options {
				return Options{
					Config:          clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll},
					Supply:          tc.supply(),
					ProgressDefault: 30_000,
					Verify:          true,
				}
			})
			requireIdenticalModes(t, tc.name, stats, mems)
			want := []uint32{1, 2, 3, 4, 5}
			if !reflect.DeepEqual(stats[0].Outputs, want) {
				t.Errorf("fused outputs = %v, want %v", stats[0].Outputs, want)
			}
			if tc.name == "always-on" && stats[0].Checkpoints != 2*len(want)+1 {
				t.Errorf("fused checkpoints = %d, want %d (a leading and a trailing one per output, plus the final commit)",
					stats[0].Checkpoints, 2*len(want)+1)
			}
			if tc.name == "exponential" && stats[0].Restarts == 0 {
				t.Error("supply never failed; the variant exercises nothing")
			}
		})
	}
}

// TestFusedFailAfterAccessDifferential pins where FailAfterAccess cuts
// land: each mode counts its own tracked accesses and cuts power after
// every 61st, so identical Stats (wall, re-execution and restart cycles
// included) mean every cut took effect right after the cutting
// instruction, even when that instruction sits mid-run in the fused
// engine.
func TestFusedFailAfterAccessDifferential(t *testing.T) {
	stats, mems := runModes(t, testProgram, func() Options {
		accesses, cuts := 0, 0
		return Options{
			Config:          clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll},
			Supply:          power.Always{},
			ProgressDefault: 30_000,
			Verify:          true,
			FailAfterAccess: func(addr uint32, write bool) bool {
				accesses++
				if accesses%61 != 0 || cuts == 200 {
					return false
				}
				cuts++
				return true
			},
		}
	})
	if stats[0].Restarts == 0 {
		t.Fatal("no cut ever fired; test exercises nothing")
	}
	requireIdenticalModes(t, "fail-after-access", stats, mems)
}
