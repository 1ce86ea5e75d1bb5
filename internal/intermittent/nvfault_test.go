package intermittent

import (
	"slices"
	"testing"

	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/power"
	"repro/internal/scheme"
)

// sweepMasks is the package-level adversarial tear set: a cut that lands
// nothing, everything, one byte, a half-word, and the two alternating
// patterns that blend sequence numbers into larger ones.
var sweepMasks = []uint32{
	0, 0xFFFFFFFF, 0x000000FF, 0xFFFF0000, 0x55555555, 0xAAAAAAAA,
}

// TestTornCommitWriteSweepRecovers is the bit-granular extension of
// TestCutAtEveryCommitWriteRecovers: every commit-protocol NV write of the
// run is torn with every mask in the adversarial set — the failing write
// lands only the masked bits — and every single run must still complete
// with oracle-equivalent outputs and an identical final NV image. No
// single torn write may ever force the degraded fresh-boot path: the
// retiring record is intact until the new one has sealed.
func TestTornCommitWriteSweepRecovers(t *testing.T) {
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
	if base.CommitWrites == 0 {
		t.Fatal("baseline run performed no commit writes")
	}

	torn := 0
	for n := 0; n < base.CommitWrites; n++ {
		for _, mask := range sweepMasks {
			if err := m.Reboot(img); err != nil {
				t.Fatal(err)
			}
			m.SetNVFault(TearAtCommitWrite(n, mask))
			st, err := m.Run()
			if err != nil {
				t.Fatalf("tear %d mask %#x: %v", n, mask, err)
			}
			if !st.Completed {
				t.Fatalf("tear %d mask %#x: did not complete", n, mask)
			}
			if st.DegradedBoots != 0 {
				t.Fatalf("tear %d mask %#x: degraded boot under a single fault", n, mask)
			}
			if !outputsEquivalent(contOut, st.Outputs) {
				t.Fatalf("tear %d mask %#x: outputs %v, want %v", n, mask, st.Outputs, contOut)
			}
			if string(m.dataSnapshot(img)) != string(contData) {
				t.Fatalf("tear %d mask %#x: final NV data image diverges", n, mask)
			}
			if mask != 0 && st.TornWrites != 1 {
				t.Fatalf("tear %d mask %#x: TornWrites = %d, want 1", n, mask, st.TornWrites)
			}
			torn += st.TornWrites
		}
	}
	m.SetNVFault(nil)
	if torn == 0 {
		t.Fatal("sweep injected no torn writes")
	}
}

// TestTornCutDuringRecoveryIdempotent stacks a second bit-granular failure
// inside the recovery routine itself: write n is torn mid-word, and the
// write after it — a replay apply or the journal clear when n cut past the
// seal — is torn with a different mask. The journal record is never
// modified by applies, so however the replay is shredded, the next boot
// replays the same set from entry zero and converges (the intermittent
// half of recovery idempotence; the clank half is pinned in
// TestJournalReplayIdempotentUnderTears).
func TestTornCutDuringRecoveryIdempotent(t *testing.T) {
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
	pairs := [][2]uint32{{0x0000FFFF, 0xAAAAAAAA}, {0x55555555, 0xFFFF0000}}
	for n := 0; n < base.CommitWrites; n++ {
		for _, masks := range pairs {
			if err := m.Reboot(img); err != nil {
				t.Fatal(err)
			}
			first, second := masks[0], masks[1]
			m.SetNVFault(func(w int) (bool, uint32) {
				switch w {
				case n:
					return true, first
				case n + 1:
					return true, second
				}
				return false, 0
			})
			st, err := m.Run()
			if err != nil {
				t.Fatalf("double tear %d %v: %v", n, masks, err)
			}
			if !st.Completed || !outputsEquivalent(contOut, st.Outputs) {
				t.Fatalf("double tear %d %v: completed=%v outputs=%v", n, masks, st.Completed, st.Outputs)
			}
			if string(m.dataSnapshot(img)) != string(contData) {
				t.Fatalf("double tear %d %v: final NV data image diverges", n, masks)
			}
			if st.DegradedBoots != 0 {
				t.Fatalf("double tear %d %v: degraded boot", n, masks)
			}
			if st.RecoveredCommits > 0 && st.TornWrites == 2 {
				hit = true
			}
		}
	}
	m.SetNVFault(nil)
	if !hit {
		t.Fatal("no double-tear run both shredded a recovery and converged")
	}
}

// TestBothSlotsCorruptDegradesGracefully drives the graceful-degradation
// floor end to end. Single torn writes cannot corrupt both slots, so the
// test models multi-fault NV decay: the injector, on a mid-run commit
// write, flips bits in BOTH slot records and cuts power. The reboot must
// detect both corruptions, take the degraded fresh-boot path, and still
// finish with exactly the oracle's outputs — the preserved output log plus
// suppression of re-emitted duplicates, carried across later checkpoints.
func TestBothSlotsCorruptDegradesGracefully(t *testing.T) {
	img := compileTest(t, commitTestProgram)
	contOut, _, _ := continuousRun(t, img)

	m, err := NewMachine(img, Options{Config: commitTestConfig, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Strike mid-run: torn-commit counts from the baseline pick a write
	// index inside a late commit so outputs have already been emitted and
	// committed (the sensorlog-style worst case for duplication).
	strike := base.CommitWrites * 3 / 4
	for _, alsoTearJournal := range []bool{false, true} {
		if err := m.Reboot(img); err != nil {
			t.Fatal(err)
		}
		fired := false
		tearJ := alsoTearJournal
		m.SetNVFault(func(w int) (bool, uint32) {
			if w != strike || fired {
				return false, 0
			}
			fired = true
			for i := 0; i < 2; i++ {
				m.slotNV[i].SetWord(3, m.slotNV[i].Word(3)^0x00100400)
			}
			if tearJ {
				m.jnlNV.SetWord(clank.JnlCRCWord, m.jnlNV.Word(clank.JnlCRCWord)^1)
			}
			return true, 0
		})
		st, err := m.Run()
		if err != nil {
			t.Fatalf("decay(journal=%v): %v", alsoTearJournal, err)
		}
		if !st.Completed {
			t.Fatalf("decay(journal=%v): did not complete", alsoTearJournal)
		}
		if st.DegradedBoots == 0 {
			t.Fatalf("decay(journal=%v): corrupting both slots did not degrade", alsoTearJournal)
		}
		if st.DetectedCorrupt < 2 {
			t.Fatalf("decay(journal=%v): DetectedCorrupt = %d, want >= 2", alsoTearJournal, st.DetectedCorrupt)
		}
		if !outputsEquivalent(contOut, st.Outputs) {
			t.Fatalf("decay(journal=%v): outputs %v, want %v (duplicate emissions?)",
				alsoTearJournal, st.Outputs, contOut)
		}
	}
	m.SetNVFault(nil)
}

// TestDegradedRestoreWhiteBox pins the degraded path's bookkeeping directly:
// with both slot records corrupted, powerFail must fall back to the pristine
// image, preserve the output log behind a suppression count, disarm the
// journal, and push nextSeq past every raw sequence cell so no later commit
// can collide with stale sealed state.
func TestDegradedRestoreWhiteBox(t *testing.T) {
	img := compileTest(t, commitTestProgram)
	m, err := NewMachine(img, Options{Config: commitTestConfig})
	if err != nil {
		t.Fatal(err)
	}
	// Fake history: outputs emitted, a stale high sequence in slot B, an
	// armed journal. Then corrupt both slots.
	m.mem.Outputs = append(m.mem.Outputs, 7, 8, 9)
	m.slotNV[1].SetWord(clank.SlotSeqWord, 41)
	m.jnlNV.SetWord(clank.JnlLenWord, 2)
	m.jnlNV.SetWord(clank.JnlSeqWord, 40)
	m.slotNV[0].SetWord(0, m.slotNV[0].Word(0)^1)
	m.powerFail()

	if m.stats.DegradedBoots != 1 {
		t.Fatalf("DegradedBoots = %d, want 1", m.stats.DegradedBoots)
	}
	if m.stats.DetectedCorrupt == 0 {
		t.Fatal("corrupt slots not counted")
	}
	if len(m.mem.Outputs) != 3 || m.outSuppress != 3 {
		t.Fatalf("output log not preserved behind suppression: %d outputs, suppress %d",
			len(m.mem.Outputs), m.outSuppress)
	}
	if m.nextSeq != 42 {
		t.Fatalf("nextSeq = %d, want 42 (past every raw seq cell)", m.nextSeq)
	}
	if m.activeSeq != 0 {
		t.Fatalf("activeSeq = %d, want 0 (no valid slot)", m.activeSeq)
	}
	if _, _, st := m.decodeJournal(); st != clank.RecEmpty {
		t.Fatalf("journal not disarmed: %v", st)
	}
}

// TestSkipCRCBugEscapesWordGranularButNotBitGranular is the meta-property
// the bit-granular failure model exists for: the BugSkipCRC protocol —
// CRC-less records trusted on a plausible length word, arming write last —
// is provably crash-consistent when NV word writes are atomic, so the
// word-granular cut sweep must pass it everywhere. Only torn writes expose
// it: a mid-word tear of the slot-seal sequence write can blend the old and
// new sequence numbers into a larger one, electing a record whose registers
// belong to neither checkpoint.
func TestSkipCRCBugEscapesWordGranularButNotBitGranular(t *testing.T) {
	img := compileTest(t, commitTestProgram)
	contOut, _, contData := continuousRun(t, img)

	m, err := NewMachine(img, Options{Config: commitTestConfig, Verify: true, CommitBug: BugSkipCRC})
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Run()
	if err != nil {
		t.Fatalf("uncut buggy run must stay clean (the bug is latent): %v", err)
	}
	if !base.Completed || !outputsEquivalent(contOut, base.Outputs) {
		t.Fatal("uncut buggy run diverged; the bug should only bite under a tear")
	}

	// Word-granular sweep: every cut position, nothing lands. The CRC-less
	// protocol must survive — this is exactly the sweep the old atomic
	// model ran, and it certifies a broken protocol.
	for n := 0; n < base.CommitWrites; n++ {
		if err := m.Reboot(img); err != nil {
			t.Fatal(err)
		}
		m.SetNVFault(TearAtCommitWrite(n, 0))
		st, err := m.Run()
		if err != nil {
			t.Fatalf("word-granular cut %d broke BugSkipCRC: %v", n, err)
		}
		if !st.Completed || !outputsEquivalent(contOut, st.Outputs) ||
			string(m.dataSnapshot(img)) != string(contData) {
			t.Fatalf("word-granular cut %d exposed BugSkipCRC; it must be latent under atomic writes", n)
		}
	}

	// Bit-granular sweep: the same positions with blending masks. At least
	// one (position, mask) must now expose the bug.
	caught := 0
	for n := 0; n < base.CommitWrites; n++ {
		for _, mask := range []uint32{0x55555555, 0xAAAAAAAA} {
			if err := m.Reboot(img); err != nil {
				t.Fatal(err)
			}
			m.SetNVFault(TearAtCommitWrite(n, mask))
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
	}
	m.SetNVFault(nil)
	if caught == 0 {
		t.Fatal("no torn write exposed the CRC-less protocol")
	}
}

// TestTornWritesCountsOnlyInjectedTears: budget deaths and mask-0 cuts land
// word-atomically and must not inflate the torn-write telemetry.
func TestTornWritesCountsOnlyInjectedTears(t *testing.T) {
	img := compileTest(t, commitTestProgram)
	m, err := NewMachine(img, Options{Config: commitTestConfig})
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if base.TornWrites != 0 {
		t.Fatalf("continuous run reports %d torn writes", base.TornWrites)
	}
	if err := m.Reboot(img); err != nil {
		t.Fatal(err)
	}
	m.SetNVFault(TearAtCommitWrite(3, 0))
	st, err := m.Run()
	m.SetNVFault(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.TornCommits == 0 {
		t.Fatal("mask-0 cut did not interrupt a commit")
	}
	if st.TornWrites != 0 {
		t.Fatalf("mask-0 cut counted as a torn write: %d", st.TornWrites)
	}
}

// tearingRun runs testProgram on a private machine under the 8/4/2 OptAll
// hardware, an Exponential{3000, 500} supply seeded with seed, and torn
// commit writes drawn from power.NewFaultStream(seed, rate). It fails the
// test unless the run completes.
func tearingRun(t *testing.T, img *ccc.Image, fac scheme.Factory, seed int64, rate float64) Stats {
	t.Helper()
	m, err := NewMachine(img, Options{
		Config:          sharedTestConfig(),
		Scheme:          fac,
		ProgressDefault: 30_000,
		Supply:          power.NewSupply(power.Exponential{Mean: 3000, Min: 500}, seed),
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := power.NewFaultStream(uint64(seed), rate)
	m.SetNVFault(func(int) (bool, uint32) { return fs.Next() })
	st, err := m.Run()
	if err != nil {
		t.Fatalf("seed %d rate %v: %v", seed, rate, err)
	}
	if !st.Completed {
		t.Fatalf("seed %d rate %v: run did not complete", seed, rate)
	}
	return st
}

// TestTornWriteSeqReuseReproduction is the reduced case of a recovery
// defect: a torn journal-length write of an unlinearized commit left the
// journal decoding empty, boot then derived the next sequence number from
// valid records only and handed out a sequence an older sealed journal
// still carried, and a later torn length write re-armed that stale journal
// under the committed slot's sequence — so recovery replayed writes staged
// after the checkpoint it restored. Outputs must equal the continuous run's.
func TestTornWriteSeqReuseReproduction(t *testing.T) {
	img := compileTest(t, testProgram)
	want, _, _ := continuousRun(t, img)
	st := tearingRun(t, img, nil, 4, 0.05)
	if st.TornWrites == 0 || st.RecoveredCommits == 0 {
		t.Fatalf("run tore %d writes and recovered %d commits; it no longer reaches the defect",
			st.TornWrites, st.RecoveredCommits)
	}
	if !slices.Equal(st.Outputs, want) {
		t.Fatalf("outputs %v, want %v (%d torn writes, %d degraded boots)",
			st.Outputs, want, st.TornWrites, st.DegradedBoots)
	}
}

// TestTornWriteScanMatchesContinuous scans seeds and tear rates under
// every scheme: every torn-write run must reproduce the continuous
// outputs exactly.
func TestTornWriteScanMatchesContinuous(t *testing.T) {
	img := compileTest(t, testProgram)
	want, _, _ := continuousRun(t, img)
	for _, name := range scheme.Names() {
		fac, err := scheme.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, rate := range []float64{0.01, 0.03, 0.05} {
			for seed := int64(1); seed <= 30; seed++ {
				st := tearingRun(t, img, fac, seed, rate)
				if !slices.Equal(st.Outputs, want) {
					t.Errorf("%s rate %v seed %d: outputs %v, want %v (%d torn writes, %d degraded boots)",
						name, rate, seed, st.Outputs, want, st.TornWrites, st.DegradedBoots)
				}
			}
		}
	}
}
