package power

import (
	"bytes"
	"strings"
	"testing"
)

func TestTraceReplaysAndWraps(t *testing.T) {
	tr := mustTrace(t, []uint64{100, 200, 300})
	want := []uint64{100, 200, 300, 100, 200, 300, 100}
	for i, w := range want {
		if got := tr.NextOn(); got != w {
			t.Fatalf("NextOn %d = %d, want %d", i, got, w)
		}
	}
	if tr.Laps() != 2 {
		t.Fatalf("Laps = %d, want 2", tr.Laps())
	}
	tr.Reset()
	if got := tr.NextOn(); got != 100 {
		t.Fatalf("after Reset, NextOn = %d, want 100", got)
	}
	if tr.Laps() != 0 {
		t.Fatalf("after Reset, Laps = %d, want 0", tr.Laps())
	}
}

func TestNewTraceCopiesInput(t *testing.T) {
	ons := []uint64{7, 8}
	tr := mustTrace(t, ons)
	ons[0] = 999
	if got := tr.NextOn(); got != 7 {
		t.Fatalf("trace aliased caller slice: NextOn = %d, want 7", got)
	}
}

// mustTrace builds a trace from a recording NewTrace must accept.
func mustTrace(t *testing.T, ons []uint64) *Trace {
	t.Helper()
	tr, err := NewTrace(ons)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestNewTraceRejects pins NewTrace's errors, the same recordings
// ParseTrace rejects: no on-durations at all, or a zero one anywhere.
func TestNewTraceRejects(t *testing.T) {
	for _, ons := range [][]uint64{nil, {}, {0}, {100, 0, 300}} {
		if tr, err := NewTrace(ons); err == nil || tr != nil {
			t.Errorf("NewTrace(%v) = %v, %v; want nil and an error", ons, tr, err)
		}
	}
}

func TestParseTrace(t *testing.T) {
	in := `# captured from an RF harvesting frontend
38000
120ms

	95 ms
7
`
	tr, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{38000, 120 * CyclesPerMilli, 95 * CyclesPerMilli, 7}
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}
	for i, w := range want {
		if got := tr.NextOn(); got != w {
			t.Fatalf("entry %d = %d, want %d", i, got, w)
		}
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", "# only comments\n\n"},
		{"zero", "100\n0\n"},
		{"garbage", "100\nforty\n"},
		{"negative", "-5\n"},
		// 2^61 ms is 2^64 cycles: the product wraps to a zero on-time.
		{"ms wraps to zero", "2305843009213693952ms\n"},
		{"ms overflows", "18446744073709551615ms\n"},
	}
	for _, c := range cases {
		if _, err := ParseTrace(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: ParseTrace accepted %q", c.name, c.in)
		}
	}
}

// TestTraceEdgeCases tables the recording shapes that have bitten (or
// could bite) the harness: a file with nothing usable in it, a zero-length
// on-time hiding among valid samples, a single-sample recording that must
// loop forever, and cycle-vs-millisecond unit mixing within one file.
func TestTraceEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []uint64 // nil = ParseTrace must reject the input
	}{
		{"empty file", "", nil},
		{"comments and blanks only", "# a recording with no samples\n\n  \n# end\n", nil},
		{"zero-length sample first", "0\n100\n", nil},
		{"zero-length sample buried", "100\n200\n0\n300\n", nil},
		{"zero milliseconds", "0ms\n", nil},
		{"single sample", "38000\n", []uint64{38000, 38000, 38000, 38000}},
		{"single ms sample", "25ms\n", []uint64{25 * CyclesPerMilli, 25 * CyclesPerMilli}},
		{"mixed units", "1000\n2ms\n3\n4 ms\n", []uint64{1000, 2 * CyclesPerMilli, 3, 4 * CyclesPerMilli}},
		{"ms suffix without digits", "ms\n", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := ParseTrace(strings.NewReader(c.in))
			if c.want == nil {
				if err == nil {
					t.Fatalf("ParseTrace accepted %q", c.in)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range c.want {
				if got := tr.NextOn(); got != w {
					t.Fatalf("NextOn %d = %d, want %d", i, got, w)
				}
			}
		})
	}
}

// TestTraceSingleSampleLoops pins the wrap bookkeeping in the degenerate
// but legal one-sample case: every NextOn is a full lap.
func TestTraceSingleSampleLoops(t *testing.T) {
	tr := mustTrace(t, []uint64{777})
	for i := 0; i < 5; i++ {
		if got := tr.NextOn(); got != 777 {
			t.Fatalf("NextOn %d = %d, want 777", i, got)
		}
	}
	if tr.Laps() != 5 {
		t.Fatalf("Laps = %d, want 5", tr.Laps())
	}
}

// TestTraceFork pins the shared-recording fork semantics the fleet engine
// depends on: phase-staggered starts, cursor independence, and wrap.
func TestTraceFork(t *testing.T) {
	base := mustTrace(t, []uint64{10, 20, 30})
	// Phase stagger: fork i starts at sample i mod len.
	for _, c := range []struct {
		start int
		first uint64
	}{{0, 10}, {1, 20}, {2, 30}, {3, 10}, {4, 20}, {-1, 30}} {
		if got := base.Fork(c.start).NextOn(); got != c.first {
			t.Errorf("Fork(%d).NextOn = %d, want %d", c.start, got, c.first)
		}
	}
	// Cursor independence: advancing one fork moves neither its siblings
	// nor the parent.
	f1, f2 := base.Fork(0), base.Fork(0)
	f1.NextOn()
	f1.NextOn()
	if got := f2.NextOn(); got != 10 {
		t.Errorf("sibling cursor moved: NextOn = %d, want 10", got)
	}
	if got := base.NextOn(); got != 10 {
		t.Errorf("parent cursor moved: NextOn = %d, want 10", got)
	}
	// A fork wraps over the shared recording like any trace.
	f := base.Fork(2)
	want := []uint64{30, 10, 20, 30}
	for i, w := range want {
		if got := f.NextOn(); got != w {
			t.Fatalf("forked NextOn %d = %d, want %d", i, got, w)
		}
	}
	if f.Laps() != 2 {
		t.Errorf("forked Laps = %d, want 2", f.Laps())
	}
}

func TestLoadTraceFile(t *testing.T) {
	tr, err := LoadTraceFile("testdata/sample.trace")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("sample trace is empty")
	}
	// The committed sample is representative of the paper's 100 ms-mean
	// environment: every on-time must at least cover a restart, and the
	// mean should be in the right decade.
	var sum uint64
	for i := 0; i < tr.Len(); i++ {
		v := tr.NextOn()
		if v < 500 {
			t.Fatalf("entry %d = %d cycles: below any plausible boot cost", i, v)
		}
		sum += v
	}
	mean := sum / uint64(tr.Len())
	if mean < 10*CyclesPerMilli || mean > 1000*CyclesPerMilli {
		t.Fatalf("sample mean on-time = %d cycles, want a 100 ms-decade environment", mean)
	}
	if _, err := LoadTraceFile("testdata/does-not-exist.trace"); err == nil {
		t.Fatal("LoadTraceFile on a missing file did not error")
	}
}

// FuzzParseTrace feeds arbitrary bytes to the trace parser (the committed
// corpus holds a cycle count, a millisecond value, a comment, a zero, an
// overflowing millisecond value and an empty file). It must never panic;
// an accepted trace holds at least one on-duration and no zero ones, and a
// rejected one comes back nil.
func FuzzParseTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseTrace(bytes.NewReader(data))
		if err != nil {
			if tr != nil {
				t.Fatalf("rejected trace (%v) came back non-nil", err)
			}
			return
		}
		if tr.Len() < 1 {
			t.Fatalf("accepted trace holds %d on-durations", tr.Len())
		}
		for i := 0; i < tr.Len(); i++ {
			if on := tr.NextOn(); on == 0 {
				t.Fatalf("accepted trace has a zero on-duration at %d", i)
			}
		}
	})
}
