package scheme

import (
	"math/big"
	"slices"
	"strings"
	"testing"

	"repro/internal/clank"
)

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"alpaca", "clank", "dica"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, n := range names {
		f, err := Parse(n)
		if err != nil {
			t.Fatalf("Parse(%q): %v", n, err)
		}
		if f.Name() != n {
			t.Errorf("factory for %q reports name %q", n, f.Name())
		}
		if s := f.New(clank.Config{ReadFirst: 4, WriteFirst: 4, WriteBack: 2}); s == nil {
			t.Errorf("factory for %q built no scheme", n)
		}
	}
	if _, err := Parse("quickrecall"); err == nil {
		t.Error("Parse accepted an unregistered name")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		ok   bool
		want string
	}{
		{"clank", true, "clank"},
		{"alpaca", true, "alpaca"},
		{"dica", true, "dica"},
		{"alpaca:500", true, "alpaca"},
		{"dica:9000", true, "dica"},
		{"clank:7", false, ""},  // clank takes no parameter
		{"alpaca:0", false, ""}, // zero parameter
		{"alpaca:x", false, ""}, // non-numeric
		{"ratchet", false, ""},  // unknown scheme
		{"", false, ""},
	}
	for _, tc := range cases {
		f, err := Parse(tc.spec)
		if tc.ok != (err == nil) {
			t.Errorf("Parse(%q) err = %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		if f.Name() != tc.want {
			t.Errorf("Parse(%q).Name() = %q, want %q", tc.spec, f.Name(), tc.want)
		}
	}
	if f, _ := Parse("alpaca:512"); f.(AlpacaFactory).TaskLen != 512 {
		t.Errorf("Parse(alpaca:512) TaskLen = %d", f.(AlpacaFactory).TaskLen)
	}
	if f, _ := Parse("dica:512"); f.(DiCAFactory).Interval != 512 {
		t.Errorf("Parse(dica:512) Interval = %d", f.(DiCAFactory).Interval)
	}
}

func TestBoxedHidesDetector(t *testing.T) {
	cfg := clank.Config{ReadFirst: 4, WriteFirst: 4, WriteBack: 2}
	plain := ClankFactory{}.New(cfg)
	if _, ok := plain.(*Clank); !ok {
		t.Fatal("plain clank scheme must expose its concrete type")
	}
	box := Boxed(ClankFactory{}).New(cfg)
	if _, ok := box.(*Clank); ok {
		t.Fatal("boxed scheme leaks the concrete *Clank")
	}
}

func TestPrivatizerShadowsStores(t *testing.T) {
	p := AlpacaFactory{}.New(clank.Config{})

	// A store is absorbed, never passed through.
	out := p.Write(100, 0xAB, 0x11, 4)
	if !out.Buffered || out.NeedCheckpoint {
		t.Fatalf("first store: %+v", out)
	}
	// A read of the shadowed word is served from the buffer.
	out = p.Read(100, 0x11, 8)
	if !out.FromWB || out.ReadValue != 0xAB {
		t.Fatalf("shadowed read: %+v", out)
	}
	// A read of an untouched word passes through.
	if out = p.Read(200, 0x22, 12); out.FromWB || out.NeedCheckpoint {
		t.Fatalf("untouched read: %+v", out)
	}
	// Rewrites update in place.
	p.Write(100, 0xCD, 0x11, 16)
	if v, ok := p.Lookup(100); !ok || v != 0xCD {
		t.Fatalf("lookup after rewrite = %#x, %v", v, ok)
	}
	if p.SectionAccesses() != 4 {
		t.Errorf("sectionAccesses = %d, want 4", p.SectionAccesses())
	}

	ents := p.DirtyEntries(nil)
	if len(ents) != 1 || ents[0].Word != 100 || ents[0].Value != 0xCD {
		t.Fatalf("dirtyEntries = %+v", ents)
	}

	p.Committed(0)
	if p.SectionAccesses() != 0 {
		t.Error("Committed did not clear the access count")
	}
	if _, ok := p.Lookup(100); ok {
		t.Error("Committed did not clear the buffer")
	}
}

func TestPrivatizerOverflowAndFloor(t *testing.T) {
	p := DiCAFactory{BufWords: 1}.New(clank.Config{}) // floored to minBufWords
	for i := 0; i < minBufWords; i++ {
		if out := p.Write(uint32(i), 1, 0, 4); !out.Buffered {
			t.Fatalf("store %d not buffered: %+v", i, out)
		}
	}
	out := p.Write(uint32(minBufWords), 1, 0, 4)
	if !out.NeedCheckpoint || out.Reason != clank.ReasonWBOverflow {
		t.Fatalf("overflowing store: %+v", out)
	}
	// A rewrite of a resident word still succeeds at capacity.
	if out = p.Write(0, 2, 0, 4); !out.Buffered {
		t.Fatalf("resident rewrite at capacity: %+v", out)
	}
}

func TestPrivatizerExemptAndText(t *testing.T) {
	cfg := clank.Config{
		ExemptPCs: map[uint32]bool{0x40: true},
		TextStart: 0x100, TextEnd: 0x200,
		Opts: clank.OptIgnoreText,
	}
	p := AlpacaFactory{}.New(cfg)

	// Exempt stores pass through to NV.
	if out := p.Write(7, 1, 0, 0x40); out.Buffered || out.NeedCheckpoint {
		t.Fatalf("exempt store: %+v", out)
	}
	// ... unless the word is already privatized: then the shadow updates.
	p.Write(7, 2, 0, 0x44)
	if out := p.Write(7, 3, 2, 0x40); !out.Buffered {
		t.Fatalf("exempt store to shadowed word: %+v", out)
	}
	if v, _ := p.Lookup(7); v != 3 {
		t.Errorf("shadow after exempt rewrite = %#x, want 3", v)
	}

	// A TEXT store mid-section vetoes; as a section's opening access it
	// passes through.
	textWord := uint32(0x100 >> 2)
	if out := p.Write(textWord, 9, 0, 0x48); !out.NeedCheckpoint || out.Reason != clank.ReasonTextWrite {
		t.Fatalf("mid-section TEXT store: %+v", out)
	}
	p.Committed(0)
	if out := p.Write(textWord, 9, 0, 0x48); out.NeedCheckpoint || out.Buffered {
		t.Fatalf("opening TEXT store: %+v", out)
	}
}

func TestAlpacaSchedule(t *testing.T) {
	s := AlpacaFactory{TaskLen: 100}.New(clank.Config{})

	if in, r := s.NextCommitIn(0, 0); in != 100 || r != clank.ReasonTaskBoundary {
		t.Fatalf("fresh schedule: %d, %v", in, r)
	}
	if in, _ := s.NextCommitIn(60, 60); in != 40 {
		t.Fatalf("mid-task: %d", in)
	}
	if in, r := s.NextCommitIn(100, 100); in != 0 || r != clank.ReasonTaskBoundary {
		t.Fatalf("at boundary: %d, %v", in, r)
	}

	// A commit re-bases the schedule; an output-forced early commit starts
	// the next task there, not at the old boundary grid.
	s.Committed(70)
	if in, _ := s.NextCommitIn(70, 0); in != 100 {
		t.Fatalf("after early commit: %d", in)
	}

	// A reboot to an older checkpoint (a later commit at 170, then a
	// restore of the one at 70) re-derives the same schedule the original
	// execution saw at that point.
	s.Committed(170)
	s.Committed(70)
	if in, _ := s.NextCommitIn(70, 0); in != 100 {
		t.Fatalf("after reboot: %d", in)
	}
}

func TestDiCASchedule(t *testing.T) {
	s := DiCAFactory{Interval: 100}.New(clank.Config{})

	if in, r := s.NextCommitIn(5000, 0); in != 100 || r != clank.ReasonCommitInterval {
		t.Fatalf("fresh interval: %d, %v", in, r)
	}
	if in, _ := s.NextCommitIn(5000, 30); in != 70 {
		t.Fatalf("mid-interval: %d", in)
	}
	if in, _ := s.NextCommitIn(5000, 100); in != 0 {
		t.Fatal("interval elapsed: expected commit now")
	}
	if in, _ := s.NextCommitIn(5000, 250); in != 0 {
		t.Fatal("interval long gone: expected commit now")
	}

	// A commit does not move DiCA onto the progress clock: the interval
	// still runs on the wall cycles since the last commit.
	s.Committed(70)
	if in, r := s.NextCommitIn(5000, 30); in != 70 || r != clank.ReasonCommitInterval {
		t.Fatalf("after commit: %d, %v", in, r)
	}
}

func TestClankSchemeNeverSchedules(t *testing.T) {
	s := ClankFactory{}.New(clank.Config{ReadFirst: 4, WriteFirst: 4, WriteBack: 2})
	if in, r := s.NextCommitIn(123, 456); in != Never || r != clank.ReasonNone {
		t.Fatalf("clank schedule: %d, %v", in, r)
	}
}

func TestDefaults(t *testing.T) {
	a := AlpacaFactory{}.New(clank.Config{}).(*privatizer)
	if a.period != DefaultTaskLen {
		t.Errorf("alpaca default task length = %d", a.period)
	}
	d := DiCAFactory{}.New(clank.Config{}).(*privatizer)
	if d.period != DefaultInterval {
		t.Errorf("dica default interval = %d", d.period)
	}
	if got := a.buf.Cap(); got != defaultBufWords {
		t.Errorf("default buffer capacity = %d", got)
	}
}

// FuzzSchemeParse throws arbitrary specs at Parse (the committed corpus
// holds each scheme bare and with a parameter, a parameter on clank, a
// zero, an overflowing parameter, a lone colon and the empty spec). It
// must never panic, and it must accept exactly the specs an independent
// reading of the grammar accepts: a registered name, optionally followed
// by ":N" where N is a non-empty run of decimal digits whose value lies in
// [1, 2^64) and the scheme is alpaca or dica. An accepted factory's Name
// is the spec's prefix and its parameter is N; a rejected spec yields no
// factory.
func FuzzSchemeParse(f *testing.F) {
	limit := new(big.Int).Lsh(big.NewInt(1), 64)
	f.Fuzz(func(t *testing.T, spec string) {
		fac, err := Parse(spec)
		name, param, has := strings.Cut(spec, ":")
		known := slices.Contains(Names(), name)
		n, digits := new(big.Int), param != "" && strings.Trim(param, "0123456789") == ""
		if digits {
			n.SetString(param, 10)
		}
		valid := known && (!has || name != "clank" && digits && n.Sign() > 0 && n.Cmp(limit) < 0)
		if err != nil {
			if fac != nil {
				t.Fatalf("Parse(%q) rejected (%v) but returned a factory", spec, err)
			}
			if valid {
				t.Fatalf("Parse(%q) rejected a valid spec: %v", spec, err)
			}
			return
		}
		if !valid {
			t.Fatalf("Parse(%q) accepted an invalid spec as %#v", spec, fac)
		}
		if fac.Name() != name {
			t.Fatalf("Parse(%q).Name() = %q, want %q", spec, fac.Name(), name)
		}
		var got uint64
		switch fac := fac.(type) {
		case AlpacaFactory:
			got = fac.TaskLen
		case DiCAFactory:
			got = fac.Interval
		}
		if want := n.Uint64(); has && got != want {
			t.Fatalf("Parse(%q) parameter = %d, want %d", spec, got, want)
		}
	})
}
