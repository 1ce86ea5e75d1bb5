package intermittent

import (
	"strings"
	"testing"

	"repro/internal/clank"
	"repro/internal/power"
)

// commitTestProgram keeps the Write-back Buffer under pressure so most
// checkpoints carry dirty entries (journal + apply + phase-2 steps), while
// staying small enough to re-run once per commit-protocol write.
const commitTestProgram = `
int buf[8];
int main(void) {
	int i;
	int s = 0;
	for (i = 0; i < 40; i++) {
		buf[i & 7] = buf[i & 7] + i;
		s += buf[i & 7];
	}
	__output((uint)s);
	for (i = 0; i < 8; i++) __output((uint)buf[i]);
	return 0;
}
`

var commitTestConfig = clank.Config{ReadFirst: 4, WriteFirst: 2, WriteBack: 2, Opts: clank.OptAll}

// TestCutAtEveryCommitWriteRecovers is the package-level heart of the
// crash-consistency argument: cut power before every single NV word write
// the commit protocol ever performs, one run per cut, and demand that every
// run still completes with oracle-equivalent outputs and an identical final
// NV image. On continuous power the run is deterministic, so the baseline's
// CommitWrites counter enumerates every possible cut position exhaustively.
func TestCutAtEveryCommitWriteRecovers(t *testing.T) {
	img := compileTest(t, commitTestProgram)
	contOut, _, contData := continuousRun(t, img)

	m, err := NewMachine(img, Options{Config: commitTestConfig, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if base.CommitWrites == 0 || base.TornCommits != 0 {
		t.Fatalf("baseline: %d commit writes, %d torn", base.CommitWrites, base.TornCommits)
	}

	recovered, preFlip := 0, 0
	for n := 0; n < base.CommitWrites; n++ {
		if err := m.Reboot(img); err != nil {
			t.Fatal(err)
		}
		m.SetNVFault(TearAtCommitWrite(n, 0))
		st, err := m.Run()
		if err != nil {
			t.Fatalf("cut %d: %v", n, err)
		}
		if !st.Completed {
			t.Fatalf("cut %d: did not complete", n)
		}
		if st.TornCommits < 1 || st.Restarts < 1 {
			t.Fatalf("cut %d: torn=%d restarts=%d, want >= 1 each", n, st.TornCommits, st.Restarts)
		}
		if !outputsEquivalent(contOut, st.Outputs) {
			t.Fatalf("cut %d: outputs %v, want %v", n, st.Outputs, contOut)
		}
		if string(m.dataSnapshot(img)) != string(contData) {
			t.Fatalf("cut %d: final NV data image diverges from continuous run", n)
		}
		if st.RecoveredCommits > 0 {
			recovered++
		} else {
			preFlip++
		}
	}
	// The sweep must have exercised both recovery verdicts: discard (cut
	// before the flip — the old checkpoint stays live, nothing to replay)
	// and replay (cut after it — armed journal drained at reboot).
	if recovered == 0 || preFlip == 0 {
		t.Fatalf("cut sweep one-sided: %d replayed, %d discarded", recovered, preFlip)
	}
}

// TestCutDuringRecoveryReplaysAgain stacks a second outage inside the
// recovery routine itself: replay is idempotent, so the next boot must
// replay the still-armed journal from entry zero and finish.
func TestCutDuringRecoveryReplaysAgain(t *testing.T) {
	img := compileTest(t, commitTestProgram)
	contOut, _, contData := continuousRun(t, img)

	m, err := NewMachine(img, Options{Config: commitTestConfig, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}

	hit := false
	for n := 0; n < base.CommitWrites; n++ {
		if err := m.Reboot(img); err != nil {
			t.Fatal(err)
		}
		// Cut at write n, and again at the write right after it — if n was
		// a post-flip cut, n+1 lands inside the reboot-time replay.
		m.SetNVFault(func(w int) (bool, uint32) { return w == n || w == n+1, 0 })
		st, err := m.Run()
		if err != nil {
			t.Fatalf("double cut %d: %v", n, err)
		}
		if !st.Completed || !outputsEquivalent(contOut, st.Outputs) {
			t.Fatalf("double cut %d: completed=%v outputs=%v", n, st.Completed, st.Outputs)
		}
		if string(m.dataSnapshot(img)) != string(contData) {
			t.Fatalf("double cut %d: final NV data image diverges", n)
		}
		if st.RecoveredCommits > 0 && st.Restarts >= 2 {
			hit = true
		}
	}
	if !hit {
		t.Fatal("no double-cut run both re-died and recovered")
	}
}

// TestEarlyFlipBugEscapesAtomicModelButNotCuts pins the meta-property the
// crash sweep depends on: the BugEarlyFlip protocol is indistinguishable
// from the correct one on continuous power (the old atomic model would
// never catch it), but cut-anywhere injection exposes it.
func TestEarlyFlipBugEscapesAtomicModelButNotCuts(t *testing.T) {
	img := compileTest(t, commitTestProgram)
	contOut, _, contData := continuousRun(t, img)

	m, err := NewMachine(img, Options{Config: commitTestConfig, Verify: true, CommitBug: BugEarlyFlip})
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Run()
	if err != nil {
		t.Fatalf("uncut buggy run must stay clean (the bug is latent): %v", err)
	}
	if !base.Completed || !outputsEquivalent(contOut, base.Outputs) {
		t.Fatal("uncut buggy run diverged; the bug should only bite under a cut")
	}

	caught := 0
	for n := 0; n < base.CommitWrites; n++ {
		if err := m.Reboot(img); err != nil {
			t.Fatal(err)
		}
		m.SetNVFault(TearAtCommitWrite(n, 0))
		st, err := m.Run()
		switch {
		case err != nil, !st.Completed:
			caught++
		case !outputsEquivalent(contOut, st.Outputs):
			caught++
		case string(m.dataSnapshot(img)) != string(contData):
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("no cut position exposed the early-flip bug")
	}
}

// TestChargeRestartExactBudgetIsBarren pins the boundary: a boot whose
// budget exactly equals the restart cost completes the start-up routine
// with nothing left to run — it is consumed whole as a barren boot (the
// death rule of clank.Ledger.SpendOverhead). With no watchdog configured
// the ledger's horizon is the power left.
func TestChargeRestartExactBudgetIsBarren(t *testing.T) {
	img := compileTest(t, `int main(void) { return 0; }`)
	m, err := NewMachine(img, Options{Config: clank.Config{ReadFirst: 4}})
	if err != nil {
		t.Fatal(err)
	}
	cost := m.opts.Costs.Restart

	m.led.PowerOn(power.NewSupply(power.Fixed{Cycles: cost}, 1))
	if m.chargeRestart() {
		t.Fatal("boot exactly equal to the restart cost must be barren")
	}
	if !m.led.Off() || m.led.RestartCycles != cost {
		t.Fatalf("barren boundary: off=%v restartCycles=%d", m.led.Off(), m.led.RestartCycles)
	}

	m.led.PowerOn(power.NewSupply(power.Fixed{Cycles: cost + 1}, 1))
	if !m.chargeRestart() {
		t.Fatal("one cycle beyond the restart cost must boot")
	}
	if left := m.led.Horizon(); left != 1 {
		t.Fatalf("power left after boot = %d, want 1", left)
	}
}

// TestMaxBarrenBootsReturnsPartialStats: the runt-cycle graceful exit must
// hand back the accumulated statistics alongside a descriptive error.
func TestMaxBarrenBootsReturnsPartialStats(t *testing.T) {
	img := compileTest(t, `int main(void) { __output(1); return 0; }`)
	m, err := NewMachine(img, Options{
		Config:         clank.Config{ReadFirst: 4},
		Supply:         power.NewSupply(power.Fixed{Cycles: 10}, 1), // < restart cost
		MaxBarrenBoots: 50,
		Verify:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err == nil {
		t.Fatal("expected a no-forward-progress error with 10-cycle boots")
	}
	if !strings.Contains(err.Error(), "no forward progress") {
		t.Errorf("undescriptive error: %v", err)
	}
	if st.Completed {
		t.Error("partial stats claim completion")
	}
	if st.BarrenBoots <= 50 || st.Restarts <= 50 {
		t.Errorf("partial stats not populated: %d barren boots, %d restarts", st.BarrenBoots, st.Restarts)
	}
}

// TestMaxWallCyclesReturnsPartialStats: the wall-clock bound must likewise
// return what was measured so far with a descriptive error.
func TestMaxWallCyclesReturnsPartialStats(t *testing.T) {
	img := compileTest(t, testProgram)
	m, err := NewMachine(img, Options{
		Config:          clank.Config{ReadFirst: 4, WriteFirst: 2, Opts: clank.OptAll},
		Supply:          power.NewSupply(power.Fixed{Cycles: 700}, 2),
		ProgressDefault: 400,
		MaxWallCycles:   20_000,
		Verify:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err == nil {
		t.Fatal("expected a wall-cycle overrun error")
	}
	if !strings.Contains(err.Error(), "exceeded 20000 wall cycles") {
		t.Errorf("undescriptive error: %v", err)
	}
	if st.Completed {
		t.Error("partial stats claim completion")
	}
	if st.WallCycles <= 20_000 || st.Restarts == 0 {
		t.Errorf("partial stats not populated: %d wall cycles, %d restarts", st.WallCycles, st.Restarts)
	}
}

// TestCommitWritesDeterministic: on continuous power the commit-write
// counter is a pure function of the program and configuration — the
// property that lets the crash sweep enumerate cut positions from one
// baseline run.
func TestCommitWritesDeterministic(t *testing.T) {
	img := compileTest(t, commitTestProgram)
	run := func() Stats {
		m, err := NewMachine(img, Options{Config: commitTestConfig, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if a.CommitWrites != b.CommitWrites || a.Checkpoints != b.Checkpoints {
		t.Fatalf("nondeterministic baseline: %d/%d vs %d/%d writes/checkpoints",
			a.CommitWrites, a.Checkpoints, b.CommitWrites, b.Checkpoints)
	}
}
