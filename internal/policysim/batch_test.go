package policysim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/power"
)

// diffCase is one design-space point for the batched-vs-scalar
// differential: mkOpts builds the Options fresh on each call so the batch
// and the scalar reference each get a private stateful power supply.
type diffCase struct {
	name   string
	cfg    clank.Config
	mkOpts func() Options
}

// diffCases spans both replay cores and every option axis: continuous
// power (the lockstep core) plain / verified / watchdogged / mixed /
// undo-logged / exempted, and harvested power (the config-major core)
// across the same axes.
func diffCases(img *ccc.Image, exempt map[uint32]bool) []diffCase {
	text := func(c clank.Config) clank.Config {
		c.TextStart, c.TextEnd = img.TextStart, img.TextEnd
		return c
	}
	harvested := func(seed int64) func() Options {
		return func() Options {
			return Options{
				Supply:          power.NewSupply(power.Exponential{Mean: 20_000, Min: 500}, seed),
				ProgressDefault: 10_000,
				Verify:          true,
			}
		}
	}
	mixed := &MixedVolatility{
		VolatileStart: img.DataEnd,
		VolatileEnd:   img.ReservedBase,
		StackTop:      img.InitialSP,
	}
	return []diffCase{
		{"cont-rf4", clank.Config{ReadFirst: 4}, func() Options { return Options{} }},
		{"cont-verify", text(clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll}),
			func() Options { return Options{Verify: true} }},
		{"cont-watchdog", clank.Config{ReadFirst: 8, WriteFirst: 4},
			func() Options { return Options{PerfWatchdog: 3_000, Verify: true} }},
		{"cont-mixed", clank.Config{ReadFirst: 1},
			func() Options { return Options{Verify: true, Mixed: mixed} }},
		{"cont-undo", clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 4},
			func() Options { return Options{UndoLog: true} }},
		{"cont-exempt", text(clank.Config{ReadFirst: 4, WriteFirst: 2, WriteBack: 1, ExemptPCs: exempt}),
			func() Options { return Options{Verify: true} }},
		{"pow-plain", text(clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll}),
			harvested(2)},
		{"pow-seed13", text(clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll}),
			harvested(13)},
		{"pow-tiny", clank.Config{ReadFirst: 2, WriteFirst: 1, WriteBack: 1, Opts: clank.OptLatestCheckpoint},
			harvested(4)},
		{"pow-undo", clank.Config{ReadFirst: 16, WriteFirst: 8, WriteBack: 8, Opts: clank.OptAll &^ clank.OptIgnoreText},
			func() Options {
				return Options{
					Supply:          power.NewSupply(power.Exponential{Mean: 20_000, Min: 500}, 7),
					ProgressDefault: 8_000,
					UndoLog:         true,
				}
			}},
		{"pow-mixed", clank.Config{ReadFirst: 2, WriteFirst: 1},
			func() Options {
				return Options{
					Supply:          power.NewSupply(power.Exponential{Mean: 15_000, Min: 500}, 21),
					ProgressDefault: 10_000,
					Verify:          true,
					Mixed:           mixed,
				}
			}},
		{"pow-watchdog", clank.Config{ReadFirst: 8, WriteFirst: 4},
			func() Options {
				return Options{
					Supply:          power.NewSupply(power.Exponential{Mean: 30_000, Min: 500}, 5),
					ProgressDefault: 10_000,
					PerfWatchdog:    5_000,
					Verify:          true,
				}
			}},
	}
}

// TestBatchMatchesScalar is the engine-level differential: every batched
// Result must be byte-identical (==) to the scalar Simulate Result for
// the same job, across both replay cores and every option axis.
func TestBatchMatchesScalar(t *testing.T) {
	img, trace, total := buildTrace(t, testProgram)
	exempt := ccc.ProgramIdempotentPCs(trace)
	cases := diffCases(img, exempt)

	jobs := make([]Job, len(cases))
	for i, c := range cases {
		jobs[i] = Job{Config: c.cfg, Opts: c.mkOpts()}
	}
	tr := NewBatchTrace(trace, total, img.TextStart, img.TextEnd)
	got, err := SimulateBatch(tr, jobs)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, c := range cases {
		want, werr := Simulate(trace, total, c.cfg, c.mkOpts())
		if werr != nil {
			t.Fatalf("%s: scalar: %v", c.name, werr)
		}
		if got[i] != want {
			t.Errorf("%s: batch %+v\n  scalar %+v", c.name, got[i], want)
		}
	}
}

// TestBatchMatchesScalarOnWallLimit pins the two engines to the same
// failure: an unreachable wall bound must produce the same error string
// and leave errorless jobs in the same batch untouched.
func TestBatchMatchesScalarOnWallLimit(t *testing.T) {
	_, trace, total := buildTrace(t, testProgram)
	cfg := clank.Config{ReadFirst: 2, WriteFirst: 1}
	tight := Options{PerfWatchdog: 200, MaxWallCycles: total + 10}

	_, werr := Simulate(trace, total, cfg, tight)
	if werr == nil {
		t.Fatal("scalar accepted an unreachable wall bound")
	}
	tr := NewBatchTrace(trace, total, 0, 0)
	jobs := []Job{
		{Config: clank.Config{ReadFirst: 8}, Opts: Options{}},
		{Config: cfg, Opts: tight},
	}
	b, err := NewBatch(tr, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	if rerr := b.Run(res, errs); rerr == nil {
		t.Fatal("batch accepted an unreachable wall bound")
	}
	if errs[0] != nil {
		t.Errorf("healthy job contaminated: %v", errs[0])
	}
	if !res[0].Completed {
		t.Error("healthy job did not complete")
	}
	if errs[1] == nil || errs[1].Error() != werr.Error() {
		t.Errorf("batch error %v, scalar error %v", errs[1], werr)
	}
}

// TestBatchRejectsTextMismatch: the faText column is baked per trace, so
// a job that enables OptIgnoreText with different bounds must be refused
// up front rather than silently misclassified.
func TestBatchRejectsTextMismatch(t *testing.T) {
	img, trace, total := buildTrace(t, testProgram)
	tr := NewBatchTrace(trace, total, img.TextStart, img.TextEnd)
	bad := clank.Config{ReadFirst: 4, Opts: clank.OptIgnoreText,
		TextStart: img.TextStart + 4, TextEnd: img.TextEnd}
	if _, err := NewBatch(tr, []Job{{Config: bad}}); err == nil {
		t.Fatal("batch accepted mismatched TEXT bounds")
	}
	ok := clank.Config{ReadFirst: 4, Opts: clank.OptIgnoreText,
		TextStart: img.TextStart, TextEnd: img.TextEnd}
	if _, err := NewBatch(tr, []Job{{Config: ok}}); err != nil {
		t.Fatalf("batch rejected matching TEXT bounds: %v", err)
	}
}

// TestSweepWorkerCountInvariance: a Sweep's output is a pure function of
// (Trace, Jobs) — byte-identical Results at any worker count and any
// shard size, which is what makes sweep failures reproducible with
// -workers 1.
func TestSweepWorkerCountInvariance(t *testing.T) {
	img, trace, total := buildTrace(t, testProgram)
	tr := NewBatchTrace(trace, total, img.TextStart, img.TextEnd)

	jobs := func() []Job {
		var js []Job
		seed := int64(100)
		for _, rf := range []int{2, 4, 8} {
			for _, wf := range []int{0, 2, 4} {
				cfg := clank.Config{ReadFirst: rf, WriteFirst: wf,
					Opts: clank.OptAll, TextStart: img.TextStart, TextEnd: img.TextEnd}
				js = append(js, Job{Config: cfg, Opts: Options{Verify: true}})
				seed++
				js = append(js, Job{Config: cfg, Opts: Options{
					Supply:          power.NewSupply(power.Exponential{Mean: 25_000, Min: 500}, seed),
					ProgressDefault: 10_000,
				}})
			}
		}
		return js
	}

	var base []Result
	for _, workers := range []int{1, 2, 8} {
		s := &Sweep{Trace: tr, Jobs: jobs(), Workers: workers, ShardSize: 4}
		out, err := s.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = out
			continue
		}
		for i := range out {
			if out[i] != base[i] {
				t.Errorf("workers=%d job %d: %+v != %+v", workers, i, out[i], base[i])
			}
		}
	}
}

// TestSimulateMaxWallCyclesSaturates is the regression test for the
// runaway-guard overflow: with a trace whose useful cycle count is large
// enough that totalCycles*1000 wraps uint64, the default MaxWallCycles
// must saturate instead of turning into a tiny bound that instantly
// fails the run.
func TestSimulateMaxWallCyclesSaturates(t *testing.T) {
	// A hand-built three-access trace with an astronomically long tail:
	// the wrapped guard (pre-fix) was ~8.4e15 cycles below WallCycles and
	// errored; the saturated guard completes.
	huge := uint64(math.MaxUint64) / 500
	trace := []armsim.Access{
		{Write: false, Addr: 0x100, Size: 4, Value: 1, Cycle: 10},
		{Write: true, Addr: 0x100, Size: 4, Value: 2, Prev: 1, PC: 0x40, Cycle: 20},
		{Write: false, Addr: 0x104, Size: 4, Value: 3, Cycle: 30},
	}
	res, err := Simulate(trace, huge, clank.Config{ReadFirst: 4}, Options{})
	if err != nil {
		t.Fatalf("saturating guard still errored: %v", err)
	}
	if !res.Completed || res.UsefulCycles != huge {
		t.Fatalf("run did not complete: %+v", res)
	}

	// The batch engine shares the normalization.
	tr := NewBatchTrace(trace, huge, 0, 0)
	got, err := SimulateBatch(tr, []Job{{Config: clank.Config{ReadFirst: 4}}})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if got[0] != res {
		t.Fatalf("batch %+v != scalar %+v", got[0], res)
	}

	// Explicit boundary: the normalized bound saturates rather than wraps.
	if o := (Options{}).normalized(huge); o.MaxWallCycles != math.MaxUint64 {
		t.Fatalf("normalized MaxWallCycles = %d, want saturation", o.MaxWallCycles)
	}
	if o := (Options{}).normalized(1000); o.MaxWallCycles != 1000*1000+100_000_000 {
		t.Fatalf("normalized MaxWallCycles = %d for small trace", o.MaxWallCycles)
	}
}

// TestBatchReplayZeroAlloc holds the steady-state batched replay step to
// zero heap allocations: after NewBatch and one warm-up Run, re-running
// the whole batch (the lockstep continuous core) must not allocate. This
// is the CI alloc guard for the sweep hot path.
func TestBatchReplayZeroAlloc(t *testing.T) {
	img, trace, total := buildTrace(t, testProgram)
	exempt := ccc.ProgramIdempotentPCs(trace)
	tr := NewBatchTrace(trace, total, img.TextStart, img.TextEnd)
	jobs := []Job{
		{Config: clank.Config{ReadFirst: 4}},
		{Config: clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2,
			Opts: clank.OptAll, TextStart: img.TextStart, TextEnd: img.TextEnd}},
		{Config: clank.Config{ReadFirst: 2, WriteFirst: 1}, Opts: Options{PerfWatchdog: 3_000}},
		// The reference monitor rides along: its table grows during the
		// first Run and is only epoch-reset afterwards.
		{Config: clank.Config{ReadFirst: 4, WriteFirst: 2}, Opts: Options{Verify: true}},
		// Monitored TEXT and exempt accesses, and a monitored watchdog.
		{Config: clank.Config{ReadFirst: 4, WriteFirst: 2, WriteBack: 1, Opts: clank.OptIgnoreText,
			TextStart: img.TextStart, TextEnd: img.TextEnd, ExemptPCs: exempt}, Opts: Options{Verify: true}},
		{Config: clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll,
			TextStart: img.TextStart, TextEnd: img.TextEnd, ExemptPCs: exempt},
			Opts: Options{Verify: true, PerfWatchdog: 3_000}},
		// An unverified job in the same exempt class group: the group
		// now needs both skip columns.
		{Config: clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll,
			TextStart: img.TextStart, TextEnd: img.TextEnd, ExemptPCs: exempt}},
	}
	b, err := NewBatch(tr, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Both skip columns are built lazily, but by NewBatch, not by Run.
	g := tr.classFor(exempt, nil)
	if g.skip[0] == nil || g.skip[1] == nil {
		t.Fatalf("NewBatch left a skip column of the shared exempt group unbuilt (unmonitored %v, monitored %v)",
			g.skip[0] != nil, g.skip[1] != nil)
	}
	if &b.sl[5].skip[0] != &g.skip[1][0] || &b.sl[6].skip[0] != &g.skip[0][0] {
		t.Fatal("verified and unverified slots do not use their mode's skip column")
	}
	// No verified job of the exempt-free group tracks TEXT reads as
	// bypassable, so its monitored column is never built.
	if tr.base.skip[1] != nil {
		t.Fatal("NewBatch built a monitored skip column no job uses")
	}
	res := make([]Result, len(jobs))
	if err := b.Run(res, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := b.Run(res, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state batched replay allocates %.1f times per Run, want 0", allocs)
	}
}

// TestBatchMatchesScalarOnViolation pins the lockstep core's monitor
// feed to the general core's: on hand-built traces in which a write from
// a wrongly exempted PC overwrites a word the section has read, the
// reference monitor must flag the same access in both engines, with the
// same error text and the same Result. Each case reaches a different
// monitor call site of the lockstep filter-probe loop.
func TestBatchMatchesScalarOnViolation(t *testing.T) {
	const (
		textEnd = 0x100 // TEXT is [0, 0x100)
		lit     = 0x40  // a TEXT word (literal pool)
		a, b, c = 0x1000, 0x1004, 0x1008
		d       = 0x100c
		pool    = 0x80 // three never-written TEXT words from here
		pcRead  = 0x10
		pcBad   = 0x20 // wrongly exempted: it overwrites read words
		pcPlain = 0x30 // never exempt
	)
	rd := func(addr, v uint32, cyc uint64) armsim.Access {
		return armsim.Access{Addr: addr, Size: 4, Value: v, PC: pcRead, Cycle: cyc}
	}
	wr := func(addr, v, prev uint32, cyc uint64) armsim.Access {
		return armsim.Access{Write: true, Addr: addr, Size: 4, Value: v, Prev: prev, PC: pcBad, Cycle: cyc}
	}
	plain := func(a armsim.Access) armsim.Access { a.PC = pcPlain; return a }
	exempt := map[uint32]bool{pcBad: true}
	cases := []struct {
		name  string
		cfg   clank.Config
		trace []armsim.Access
		run   int // access index that must start a monitored skip run of 3 (0 = none)
	}{
		{
			// The TEXT read bypasses the detector; the exempt write of
			// the never-inserted word is resolved by IdxMiss.
			name: "text-read",
			cfg: clank.Config{ReadFirst: 4, Opts: clank.OptIgnoreText,
				TextEnd: textEnd, ExemptPCs: exempt},
			trace: []armsim.Access{rd(a, 1, 10), rd(lit, 7, 20), rd(lit, 7, 30), wr(lit, 8, 7, 40), rd(b, 2, 50)},
		},
		{
			// Reading a fills the one-entry Read-first Buffer; reading b
			// overflows it into untracked mode, and c is read there. The
			// exempt write of c is resolved by IdxMiss.
			name:  "untracked-read",
			cfg:   clank.Config{ReadFirst: 1, Opts: clank.OptLatestCheckpoint, ExemptPCs: exempt},
			trace: []armsim.Access{rd(a, 1, 10), rd(b, 2, 20), rd(c, 3, 30), rd(c, 3, 40), wr(c, 4, 3, 50), rd(a, 1, 60)},
		},
		{
			// a is Read-first resident, so the index cannot certify the
			// exempt write: it takes the WritePre miss path.
			name:  "rf-resident",
			cfg:   clank.Config{ReadFirst: 4, ExemptPCs: exempt},
			trace: []armsim.Access{rd(a, 1, 10), rd(b, 2, 20), rd(a, 1, 30), wr(a, 5, 1, 40), rd(c, 3, 50)},
		},
		{
			// The exempt read of b is certified in the probe loop (no
			// Write-back entry is dirty) and reported to ReadNV; a plain
			// write then passes through (WriteFirst 0) by IdxMiss.
			name: "exempt-read-passthrough",
			cfg:  clank.Config{ReadFirst: 4, ExemptPCs: map[uint32]bool{pcRead: true}},
			trace: []armsim.Access{rd(a, 1, 10), rd(b, 2, 20), plain(wr(b, 9, 2, 30)),
				rd(c, 3, 40)},
		},
		{
			// The same exempt read of b while d holds a dirty Write-back
			// entry (d is Read-first resident, so its plain write is
			// buffered): the read could be FromWB, so it falls back to
			// ReadPre, which reports it to ReadNV through settleAccess.
			name: "exempt-read-dirty-wb",
			cfg:  clank.Config{ReadFirst: 4, WriteBack: 2, ExemptPCs: map[uint32]bool{pcRead: true}},
			trace: []armsim.Access{plain(rd(d, 4, 10)), plain(wr(d, 5, 4, 20)), rd(a, 1, 30), rd(b, 2, 40),
				plain(wr(b, 9, 2, 50)), rd(c, 3, 60)},
		},
		{
			// A run of never-written TEXT literals is consumed by the
			// monitored skip column without reaching the monitor; the
			// literal at lit is written later, so its read still goes to
			// ReadNV, and the exempt write of it is caught in the same
			// section.
			name: "text-skip-run",
			cfg: clank.Config{ReadFirst: 4, Opts: clank.OptIgnoreText,
				TextEnd: textEnd, ExemptPCs: exempt},
			trace: []armsim.Access{rd(a, 1, 10), rd(pool, 5, 20), rd(pool+4, 6, 30), rd(pool+8, 7, 40),
				rd(lit, 7, 50), wr(lit, 8, 7, 60), rd(b, 2, 70)},
			run: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			total := tc.trace[len(tc.trace)-1].Cycle + 10
			o := Options{Verify: true}
			want, werr := Simulate(tc.trace, total, tc.cfg, o)
			if werr == nil {
				t.Fatal("scalar replay missed the violation")
			}
			tr := NewBatchTrace(tc.trace, total, tc.cfg.TextStart, tc.cfg.TextEnd)
			bt, err := NewBatch(tr, []Job{{Config: tc.cfg, Opts: o}})
			if err != nil {
				t.Fatal(err)
			}
			res := make([]Result, 1)
			errs := make([]error, 1)
			bt.Run(res, errs)
			if bt.sl[0].needsPowered {
				t.Fatal("job left the lockstep core")
			}
			if tc.run != 0 && bt.sl[0].skip[tc.run] != 3 {
				t.Fatalf("monitored skip column at access %d is %d, want a run of 3", tc.run, bt.sl[0].skip[tc.run])
			}
			if errs[0] == nil || errs[0].Error() != werr.Error() {
				t.Errorf("batch error %v\n  scalar error %v", errs[0], werr)
			}
			if res[0] != want {
				t.Errorf("batch %+v\n  scalar %+v", res[0], want)
			}
		})
	}
}

// TestBatchMatchesScalarWatchdogSpans covers the lockstep core's
// Performance Watchdog across span boundaries: watchdog periods shorter
// than, comparable to and longer than a span (and one that never fires)
// must give Results byte-identical to Simulate's, monitored and not. The
// compiled program spans several spans; the hand-built trace puts output
// commits on span boundaries, where a segment that overran its span
// would replay an access twice.
func TestBatchMatchesScalarWatchdogSpans(t *testing.T) {
	img, compiled, compiledTotal := buildTrace(t, strings.Replace(testProgram, "i < 200", "i < 2000", 1))
	if len(compiled) < 4*spanChunk {
		t.Fatalf("trace has %d accesses, want several spans", len(compiled))
	}
	var boundary []armsim.Access
	for i := 0; i < 3*spanChunk+5; i++ {
		a := armsim.Access{Addr: 0x1000 + uint32(i%8)*4, Size: 4, Value: uint32(i % 8), PC: 0x10, Cycle: uint64(10 * i)}
		if i%spanChunk == 0 && i > 0 {
			a = armsim.Access{Write: true, Addr: armsim.MemSize, Size: 4, Value: uint32(i), PC: 0x20, Cycle: uint64(10 * i)}
		}
		boundary = append(boundary, a)
	}
	boundaryTotal := uint64(10*len(boundary) + 10)

	for _, tc := range []struct {
		name  string
		trace []armsim.Access
		total uint64
		cfg   clank.Config
	}{
		{"compiled", compiled, compiledTotal, clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2,
			Opts: clank.OptAll, TextStart: img.TextStart, TextEnd: img.TextEnd}},
		{"boundary-outputs", boundary, boundaryTotal, clank.Config{ReadFirst: 8}},
	} {
		var jobs []Job
		for _, wdt := range []uint64{700, 5_000, 60_000, 100_000, tc.total + 1} {
			for _, verify := range []bool{false, true} {
				jobs = append(jobs, Job{Config: tc.cfg, Opts: Options{PerfWatchdog: wdt, Verify: verify}})
			}
		}
		tr := NewBatchTrace(tc.trace, tc.total, tc.cfg.TextStart, tc.cfg.TextEnd)
		got, err := SimulateBatch(tr, jobs)
		if err != nil {
			t.Fatalf("%s: batch: %v", tc.name, err)
		}
		for i, j := range jobs {
			want, err := Simulate(tc.trace, tc.total, j.Config, j.Opts)
			if err != nil {
				t.Fatalf("%s: scalar: %v", tc.name, err)
			}
			if got[i] != want {
				t.Errorf("%s watchdog %d verify %v: batch %+v\n  scalar %+v",
					tc.name, j.Opts.PerfWatchdog, j.Opts.Verify, got[i], want)
			}
		}
	}
}
