package clank

import "testing"

// filterTestConfig has every buffer the filter interacts with: RF and WF
// for the read/write fast paths, WB so violations buffer (and invalidate).
var filterTestConfig = Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 4}

// TestFilterResetIdempotent drives the detector into a state where both
// filter arrays and a dirty Write-back entry are populated, then Resets
// twice (the double-reboot pattern: power failure during the first boot's
// restore). After the second Reset the detector must behave exactly like a
// fresh one — no stale filter entry may answer an access that needs the
// full classification.
func TestFilterResetIdempotent(t *testing.T) {
	k := New(filterTestConfig)
	if got := k.Read(5, 100, 0); got != (Outcome{}) {
		t.Fatalf("Read(5) = %+v, want {}", got)
	}
	if got := k.Write(7, 1, 0, 0); got != (Outcome{}) {
		t.Fatalf("Write(7) = %+v, want {}", got)
	}
	if got := k.Write(5, 42, 100, 0); !got.Buffered {
		t.Fatalf("violating Write(5) = %+v, want Buffered", got)
	}

	k.Reset()
	k.Reset() // double reboot: Reset must be idempotent

	if got := k.SectionAccesses(); got != 0 {
		t.Fatalf("SectionAccesses after double Reset = %d, want 0", got)
	}
	// Word 5 had a dirty Write-back entry; a stale filter (or surviving WB
	// state) would answer {} without re-tracking, or worse serve FromWB.
	if got := k.Read(5, 100, 0); got != (Outcome{}) {
		t.Fatalf("Read(5) after Reset = %+v, want {} (fresh RF insert)", got)
	}
	// The read above must have re-inserted word 5 into RF: a write now is
	// a WAR violation again. A stale fltRead entry would have skipped the
	// insert and this write would pass through as write-dominated.
	if got := k.Write(5, 9, 100, 0); !got.Buffered {
		t.Fatalf("Write(5) after Reset+Read = %+v, want Buffered (violation)", got)
	}
	// Word 7 sat in WF with a fltWrite entry. If that entry survived
	// Reset, this write returns {} WITHOUT re-inserting into WF — then the
	// read below classifies the word read-dominated and the second write
	// becomes a violation. The correct detector re-inserts into WF, the
	// read hits the WF entry, and the second write stays write-dominated.
	if got := k.Write(7, 3, 0, 0); got != (Outcome{}) {
		t.Fatalf("Write(7) after Reset = %+v, want {}", got)
	}
	if got := k.Read(7, 3, 0); got != (Outcome{}) {
		t.Fatalf("Read(7) after Reset = %+v, want {}", got)
	}
	if got := k.Write(7, 4, 3, 0); got != (Outcome{}) {
		t.Fatalf("second Write(7) after Reset = %+v, want {} (write-dominated), stale filter survived Reset", got)
	}
}

// TestFilterBugDiverges proves the deliberately broken filter mode is
// observable: skipping the violation-time invalidation makes a read that
// must be served from the Write-back Buffer return a stale "tracked,
// nothing to do" verdict instead. This is the clank-layer half of the
// stale-filter meta-test; internal/verify has the harness-level half.
func TestFilterBugDiverges(t *testing.T) {
	run := func(bug FilterBug) Outcome {
		k := New(filterTestConfig)
		ref := newMapModel(filterTestConfig)
		k.SetFilterBug(bug)
		step := func(o, r Outcome, what string) Outcome {
			t.Helper()
			if bug == FilterBugNone && o != r {
				t.Fatalf("correct filter diverged from map model at %s: %+v vs %+v", what, o, r)
			}
			return o
		}
		step(k.Read(0, 100, 0), ref.Read(0, 100, 0), "Read")
		step(k.Write(0, 42, 100, 0), ref.Write(0, 42, 100, 0), "Write")
		// The violation gave word 0 a dirty WB entry; the read verdict
		// cached at the first Read is now stale.
		return step(k.Read(0, 100, 0), ref.Read(0, 100, 0), "re-Read")
	}

	want := Outcome{FromWB: true, ReadValue: 42}
	if got := run(FilterBugNone); got != want {
		t.Fatalf("correct filter: re-read = %+v, want %+v", got, want)
	}
	if got := run(FilterBugSkipViolationInvalidate); got == want {
		t.Fatalf("bugged filter: re-read = %+v — the injected staleness is not observable", got)
	}
}

// TestFilterDisabledMatches runs a collision-heavy stream (words 512
// apart share a filter slot) through a filtered and an unfiltered detector
// and requires identical outcomes and counters at every step.
func TestFilterDisabledMatches(t *testing.T) {
	cfgOn := filterTestConfig
	cfgOff := filterTestConfig
	cfgOff.DisableFilter = true
	on, off := New(cfgOn), New(cfgOff)

	words := []uint32{0, 512, 0, 1024, 512, 0, 1536, 1024}
	for i, w := range words {
		if got, want := on.Read(w, w+1, 0), off.Read(w, w+1, 0); got != want {
			t.Fatalf("step %d: Read(%d) = %+v filtered, %+v unfiltered", i, w, got, want)
		}
		if got, want := on.Write(w, w+2, w+1, 0), off.Write(w, w+2, w+1, 0); got != want {
			t.Fatalf("step %d: Write(%d) = %+v filtered, %+v unfiltered", i, w, got, want)
		}
		if on.SectionAccesses() != off.SectionAccesses() {
			t.Fatalf("step %d: accesses %d filtered, %d unfiltered", i, on.SectionAccesses(), off.SectionAccesses())
		}
	}
	t.Run("noWFOverflow", testFilterPassEntries)
}

// testFilterPassEntries drives the OptNoWFOverflow pass verdicts through
// their whole life on buffers small enough to fill: a write finding the
// Address Prefix Buffer full, then one finding the Write-first Buffer full,
// each cached as a write pass entry; a later read that inserts the word
// into the Read-first Buffer, after which the same write is a violation;
// and a Read-first fill that goes untracked, after which a write of the
// other pass word must checkpoint. Filtered and unfiltered detectors must
// agree at every step, and the entries must be cached and dropped exactly
// where the invalidation matrix says.
func testFilterPassEntries(t *testing.T) {
	cfg := Config{ReadFirst: 2, WriteFirst: 1, WriteBack: 1, AddrPrefix: 1, PrefixLowBits: 4,
		Opts: OptNoWFOverflow | OptLatestCheckpoint}
	cfgOff := cfg
	cfgOff.DisableFilter = true
	on, off := New(cfg), New(cfgOff)
	mem := map[uint32]uint32{}
	type op struct {
		write     bool
		word, val uint32
		want      Outcome
		pass      map[uint32]bool // FilterHitWrite expected after the op
	}
	ops := []op{
		{word: 1, want: Outcome{}},                                            // RF insert; APB takes prefix 0 and is full
		{write: true, word: 16, val: 5, want: Outcome{}, pass: pass(16)},      // prefix 1 unrecordable: APB-full pass
		{write: true, word: 16, val: 6, want: Outcome{}, pass: pass(16)},      // filter hit
		{write: true, word: 2, val: 7, want: Outcome{}, pass: pass(16, 2)},    // WF insert; WF is full
		{write: true, word: 3, val: 8, want: Outcome{}, pass: pass(16, 2, 3)}, // WF-full pass
		{write: true, word: 3, val: 9, want: Outcome{}, pass: pass(16, 2, 3)}, // filter hit
		{word: 3, want: Outcome{}, pass: pass(16, 2)},                         // RF insert drops 3's pass entry
		{write: true, word: 3, val: 10, want: Outcome{Buffered: true}},        // now a WAR violation
		{word: 17, want: Outcome{}, pass: pass()},                             // RF full: untracked, every write entry wiped
		{write: true, word: 16, val: 11, want: Outcome{NeedCheckpoint: true, Reason: ReasonWriteInFill}},
	}
	for i, o := range ops {
		var got, want Outcome
		if o.write {
			got, want = on.Write(o.word, o.val, mem[o.word], 0), off.Write(o.word, o.val, mem[o.word], 0)
			if !got.NeedCheckpoint && !got.Buffered {
				mem[o.word] = o.val
			}
		} else {
			got, want = on.Read(o.word, mem[o.word], 0), off.Read(o.word, mem[o.word], 0)
		}
		if got != want || got != o.want {
			t.Fatalf("step %d: filtered %+v, unfiltered %+v, want %+v", i, got, want, o.want)
		}
		if on.SectionAccesses() != off.SectionAccesses() {
			t.Fatalf("step %d: accesses %d filtered, %d unfiltered", i, on.SectionAccesses(), off.SectionAccesses())
		}
		if o.pass == nil {
			continue
		}
		for _, w := range []uint32{2, 3, 16} {
			if on.FilterHitWrite(w) != o.pass[w] {
				t.Fatalf("step %d: FilterHitWrite(%d) = %v, want %v", i, w, on.FilterHitWrite(w), o.pass[w])
			}
		}
	}
}

func pass(words ...uint32) map[uint32]bool {
	m := map[uint32]bool{}
	for _, w := range words {
		m[w] = true
	}
	return m
}

// TestTextWordsRoundsUp pins the word-address classification of an
// unaligned TEXT end: the straddling word belongs to TEXT (Config.TextWords
// rounds TextEnd up), and the detector classifies with exactly those
// bounds, so drivers that pre-classify reads agree with it byte for byte.
func TestTextWordsRoundsUp(t *testing.T) {
	cfg := Config{ReadFirst: 4, Opts: OptIgnoreText, TextStart: 8, TextEnd: 65}
	k := New(cfg)
	lo, hi, active := cfg.TextWords()
	if !active || lo != 2 || hi != 17 {
		t.Fatalf("TextWords() = %d, %d, %v, want 2, 17, true", lo, hi, active)
	}
	if k.textStartW != lo || k.textEndW != hi {
		t.Fatalf("detector window [%d, %d), want [%d, %d)", k.textStartW, k.textEndW, lo, hi)
	}
	// Word 16 holds bytes 64..67: byte 64 is past TextEnd-1? No — TextEnd
	// is exclusive at byte 65, so byte 64 is TEXT and the whole word is
	// classified TEXT. Reads of it must not occupy RF slots.
	for _, w := range []uint32{2, 16} {
		if got := k.Read(w, 0, 0); got != (Outcome{}) {
			t.Fatalf("Read(text word %d) = %+v, want {}", w, got)
		}
	}
	// Word 17 (byte 68) is the first data word: it must be tracked.
	for w := uint32(17); w < 21; w++ {
		if got := k.Read(w, 0, 0); got != (Outcome{}) {
			t.Fatalf("Read(data word %d) = %+v, want {}", w, got)
		}
	}
	// RF capacity is 4 and exactly words 17..20 should occupy it; a fifth
	// data word overflows, proving the two TEXT reads took no slots.
	if got := k.Read(21, 0, 0); !got.NeedCheckpoint || got.Reason != ReasonRFOverflow {
		t.Fatalf("Read(word 21) = %+v, want RF overflow", got)
	}
}
