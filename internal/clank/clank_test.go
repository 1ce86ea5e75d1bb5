package clank

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Clank {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(cfg)
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config must be invalid (no Read-first entries)")
	}
	if err := (Config{ReadFirst: 1}).Validate(); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
	if err := (Config{ReadFirst: 1, AddrPrefix: 4}).Validate(); err == nil {
		t.Error("APB without PrefixLowBits must be invalid")
	}
}

func TestParseOpts(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Opt
		ok   bool
	}{
		{"all", OptAll, true},
		{"none", 0, true},
		{"All", 0, false},
		{"", 0, false},
		{"al", 0, false},
	} {
		got, err := ParseOpts(tc.in)
		switch {
		case tc.ok && (err != nil || got != tc.want):
			t.Errorf("ParseOpts(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		case !tc.ok && err == nil:
			t.Errorf("ParseOpts(%q) = %v; want an error", tc.in, got)
		case !tc.ok && !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.in)):
			t.Errorf("ParseOpts(%q) error %q does not name the value", tc.in, err)
		}
	}
}

func TestBufferBits(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int
	}{
		// The paper's accounting: 30-bit word addresses.
		{Config{ReadFirst: 1}, 30},
		{Config{ReadFirst: 16}, 480},
		{Config{ReadFirst: 8, WriteFirst: 8}, 480},
		{Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2}, 8*30 + 4*30 + 2*62},
		// With a 4-entry APB and 6 low bits: entries are 6+2=8 bits,
		// prefixes 24 bits (the paper's section 3.1.3 example).
		{Config{ReadFirst: 16, WriteFirst: 8, WriteBack: 4, AddrPrefix: 4, PrefixLowBits: 6},
			16*8 + 8*8 + 4*(8+32) + 4*24},
	}
	for _, tc := range cases {
		if got := tc.cfg.BufferBits(); got != tc.want {
			t.Errorf("%s: BufferBits = %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

func TestBasicViolationDetection(t *testing.T) {
	k := mustNew(t, Config{ReadFirst: 4})
	// Read then write a different value: violation, no WB -> checkpoint.
	if out := k.Read(100, 5, 0); out.NeedCheckpoint {
		t.Fatal("first read must not checkpoint")
	}
	out := k.Write(100, 7, 5, 0)
	if !out.NeedCheckpoint || out.Reason != ReasonViolation {
		t.Fatalf("write-after-read must checkpoint, got %+v", out)
	}
	// After reset the same write is first-access: allowed through.
	k.Reset()
	if out := k.Write(100, 7, 5, 0); out.NeedCheckpoint || out.Buffered {
		t.Fatalf("first-access write must pass, got %+v", out)
	}
}

func TestWriteDominatedIsFree(t *testing.T) {
	k := mustNew(t, Config{ReadFirst: 2, WriteFirst: 2})
	k.Write(50, 1, 0, 0)
	// Subsequent reads and writes of a write-dominated word are free.
	for i := 0; i < 10; i++ {
		if out := k.Read(50, 1, 0); out.NeedCheckpoint {
			t.Fatal("read of write-dominated word checkpointed")
		}
		if out := k.Write(50, uint32(i), 1, 0); out.NeedCheckpoint {
			t.Fatal("write of write-dominated word checkpointed")
		}
	}
}

func TestReadFirstOverflow(t *testing.T) {
	k := mustNew(t, Config{ReadFirst: 2})
	k.Read(1, 0, 0)
	k.Read(2, 0, 0)
	out := k.Read(3, 0, 0)
	if !out.NeedCheckpoint || out.Reason != ReasonRFOverflow {
		t.Fatalf("third distinct read with RF=2 must overflow, got %+v", out)
	}
}

func TestLatestCheckpointDelaysToFirstUnknownWrite(t *testing.T) {
	k := mustNew(t, Config{ReadFirst: 2, WriteFirst: 2, Opts: OptLatestCheckpoint})
	k.Write(9, 1, 0, 0) // write-dominated
	k.Read(1, 0, 0)
	k.Read(2, 0, 0)
	if out := k.Read(3, 0, 0); out.NeedCheckpoint {
		t.Fatalf("overflow read must enter untracked mode, got %+v", out)
	}
	if !k.Untracked() {
		t.Fatal("not in untracked mode after fill")
	}
	// More reads remain free.
	if out := k.Read(4, 0, 0); out.NeedCheckpoint {
		t.Fatal("untracked read checkpointed")
	}
	// A write to the known write-dominated word is still safe.
	if out := k.Write(9, 2, 1, 0); out.NeedCheckpoint {
		t.Fatalf("write to WF-resident word in untracked mode checkpointed: %+v", out)
	}
	// A write to an unknown word must take the delayed checkpoint.
	out := k.Write(77, 1, 0, 0)
	if !out.NeedCheckpoint || out.Reason != ReasonWriteInFill {
		t.Fatalf("first unknown write after fill must checkpoint, got %+v", out)
	}
}

func TestWriteBackBuffering(t *testing.T) {
	k := mustNew(t, Config{ReadFirst: 4, WriteBack: 2})
	k.Read(10, 5, 0)
	out := k.Write(10, 6, 5, 0)
	if !out.Buffered || out.NeedCheckpoint {
		t.Fatalf("violation must be absorbed by WB, got %+v", out)
	}
	// The buffered value shadows memory.
	if v, ok := k.Lookup(10); !ok || v != 6 {
		t.Fatalf("Lookup = %d,%v, want 6,true", v, ok)
	}
	if out := k.Read(10, 5, 0); !out.FromWB || out.ReadValue != 6 {
		t.Fatalf("read must come from WB with value 6, got %+v", out)
	}
	// Updates in place don't consume capacity.
	k.Write(10, 7, 5, 0)
	k.Read(20, 1, 0)
	if out := k.Write(20, 2, 1, 0); !out.Buffered {
		t.Fatalf("second violation should fit WB=2, got %+v", out)
	}
	k.Read(30, 1, 0)
	out = k.Write(30, 2, 1, 0)
	if !out.NeedCheckpoint || out.Reason != ReasonWBOverflow {
		t.Fatalf("third violation must overflow WB=2, got %+v", out)
	}
	// Drain order is deterministic (ascending).
	d := k.DirtyEntries(nil)
	if len(d) != 2 || d[0].Word != 10 || d[0].Value != 7 || d[1].Word != 20 {
		t.Fatalf("DirtyEntries = %+v", d)
	}
}

func TestIgnoreFalseWrites(t *testing.T) {
	k := mustNew(t, Config{ReadFirst: 4, WriteBack: 2, Opts: OptIgnoreFalseWrites})
	k.Read(10, 5, 0)
	// Writing the same value back is not a violation.
	if out := k.Write(10, 5, 5, 0); out.NeedCheckpoint || out.Buffered {
		t.Fatalf("false write must pass through, got %+v", out)
	}
	// A changed value is buffered.
	if out := k.Write(10, 6, 5, 0); !out.Buffered {
		t.Fatalf("real violation must buffer, got %+v", out)
	}
}

func TestRemoveDuplicatesFreesRF(t *testing.T) {
	k := mustNew(t, Config{ReadFirst: 1, WriteBack: 2, Opts: OptRemoveDuplicates})
	k.Read(10, 5, 0)
	if out := k.Write(10, 6, 5, 0); !out.Buffered {
		t.Fatalf("violation should buffer, got %+v", out)
	}
	// RF slot was freed: a new read fits without overflow.
	if out := k.Read(20, 1, 0); out.NeedCheckpoint {
		t.Fatalf("RF slot not freed by remove-duplicates: %+v", out)
	}
}

func TestNoWFOverflow(t *testing.T) {
	with := mustNew(t, Config{ReadFirst: 2, WriteFirst: 1, Opts: OptNoWFOverflow})
	with.Write(1, 1, 0, 0)
	if out := with.Write(2, 1, 0, 0); out.NeedCheckpoint {
		t.Fatalf("WF overflow must be ignorable with the optimization, got %+v", out)
	}
	without := mustNew(t, Config{ReadFirst: 2, WriteFirst: 1})
	without.Write(1, 1, 0, 0)
	if out := without.Write(2, 1, 0, 0); !out.NeedCheckpoint || out.Reason != ReasonWFOverflow {
		t.Fatalf("WF overflow must checkpoint without the optimization, got %+v", out)
	}
}

func TestIgnoreTextReadsCheckpointWrites(t *testing.T) {
	k := mustNew(t, Config{ReadFirst: 1, Opts: OptIgnoreText, TextStart: 0, TextEnd: 0x1000})
	// Unlimited text reads fit a single-entry RF.
	for w := uint32(0); w < 100; w++ {
		if out := k.Read(w, 0, 0); out.NeedCheckpoint {
			t.Fatalf("text read %d checkpointed", w)
		}
	}
	k.Read(0x2000>>2, 0, 0) // one data read occupies RF
	// A write INTO text forces a checkpoint (self-modifying code).
	out := k.Write(0x10, 1, 0, 0)
	if !out.NeedCheckpoint || out.Reason != ReasonTextWrite {
		t.Fatalf("text write must checkpoint, got %+v", out)
	}
	// After the checkpoint the re-fed write passes as the section opener.
	k.Reset()
	if out := k.Write(0x10, 1, 0, 0); out.NeedCheckpoint {
		t.Fatalf("re-fed text write must pass, got %+v", out)
	}
}

func TestAddressPrefixOverflow(t *testing.T) {
	// 1-bit low addresses: prefixes change every 2 words; a single APB
	// entry overflows on the second distinct prefix.
	k := mustNew(t, Config{ReadFirst: 8, AddrPrefix: 1, PrefixLowBits: 1})
	k.Read(0, 0, 0)
	k.Read(1, 0, 0) // same prefix
	out := k.Read(4, 0, 0)
	if !out.NeedCheckpoint || out.Reason != ReasonAPOverflow {
		t.Fatalf("distinct prefix must overflow APB=1, got %+v", out)
	}
}

func TestExemptPCsIgnored(t *testing.T) {
	k := mustNew(t, Config{ReadFirst: 1, ExemptPCs: map[uint32]bool{0x100: true}})
	// Exempt accesses consume no buffer space.
	for w := uint32(0); w < 50; w++ {
		if out := k.Read(w, 0, 0x100); out.NeedCheckpoint {
			t.Fatal("exempt read checkpointed")
		}
	}
	// Non-exempt traffic still tracks.
	k.Read(1000, 0, 0x200)
	if out := k.Read(1001, 0, 0x200); !out.NeedCheckpoint {
		t.Fatalf("RF=1 must overflow on the second tracked read, got %+v", out)
	}
}

func TestResetClearsEverything(t *testing.T) {
	k := mustNew(t, Config{ReadFirst: 2, WriteFirst: 2, WriteBack: 2, AddrPrefix: 2, PrefixLowBits: 6})
	k.Read(1, 0, 0)
	k.Write(1, 5, 0, 0)
	k.Write(2, 1, 0, 0)
	k.Reset()
	if k.WBDirty() != 0 || len(k.DirtyEntries(nil)) != 0 || k.Untracked() || k.SectionAccesses() != 0 {
		t.Error("Reset left residual state")
	}
	// All capacity is available again.
	k.Read(10, 0, 0)
	if out := k.Read(11, 0, 0); out.NeedCheckpoint {
		t.Errorf("buffers not actually cleared: %+v", out)
	}
}

// TestQuickCapacityInvariants drives random access streams and checks the
// structural invariants: buffers never exceed capacity and a word is never
// tracked as both read- and write-dominated.
func TestQuickCapacityInvariants(t *testing.T) {
	prop := func(ops []uint16, rf, wf, wb uint8) bool {
		cfg := Config{
			ReadFirst:  int(rf%8) + 1,
			WriteFirst: int(wf % 8),
			WriteBack:  int(wb % 8),
			Opts:       OptAll &^ OptIgnoreText,
		}
		k := New(cfg)
		for _, op := range ops {
			word := uint32(op>>1) & 63
			if op&1 == 0 {
				out := k.Read(word, uint32(op), 0)
				if out.NeedCheckpoint {
					k.Reset()
					k.Read(word, uint32(op), 0)
				}
			} else {
				out := k.Write(word, uint32(op), uint32(op^1), 0)
				if out.NeedCheckpoint {
					k.Reset()
					k.Write(word, uint32(op), uint32(op^1), 0)
				}
			}
			if k.rf.size() > cfg.ReadFirst || k.wf.size() > cfg.WriteFirst ||
				len(k.wb.slots) > cfg.WriteBack || k.wbDirty > cfg.WriteBack {
				return false
			}
			for _, w := range k.rf.words {
				if k.wf.contains(w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReasonStrings(t *testing.T) {
	for r := ReasonNone; int(r) < NumReasons; r++ {
		if r.String() == "unknown" {
			t.Errorf("reason %d has no name", r)
		}
	}
	if (Reason(NumReasons)).String() != "unknown" {
		t.Error("out-of-range reason should be unknown")
	}
	// Appending a Reason without growing NumReasons silently truncates
	// the ReasonCounts array, and growing it without a name makes
	// counters render as "unknown"; pin the correspondence.
	if NumReasons != len(reasonNames) {
		t.Errorf("NumReasons = %d but %d reasons are named", NumReasons, len(reasonNames))
	}
}

func TestOptString(t *testing.T) {
	if Opt(0).String() != "none" {
		t.Error("zero opts should print none")
	}
	s := OptAll.String()
	for _, want := range []string{"falsewrites", "dedup", "nowf", "text", "latest"} {
		if !contains(s, want) {
			t.Errorf("OptAll string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
