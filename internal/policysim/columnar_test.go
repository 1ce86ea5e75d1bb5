package policysim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/power"
)

// TestClassificationMatchesPredicates pins the classification columns to
// the per-access predicates they replace: for every diffCases config, the
// flags NewBatchTrace and classFor bake in must equal,
// access for access, the tests a row-by-row replay would evaluate inline —
// faOutput is Addr >= MemSize, faText (when the detector's TEXT window is
// active) is membership in clank.Config.TextWords, faNoWrite and faShadowed are
// noReportModel's, faExempt is ExemptPCs[pc], and faVolatile is the Mixed
// range, tested only after the output branch.
// Together with clank's TestPreClassifiedMatchesPC (ReadPre/WritePre are
// Read/Write with these flags hoisted out) it shows the columnar replay
// sees every access exactly as the detector's own classification would.
func TestClassificationMatchesPredicates(t *testing.T) {
	img, trace, total := buildTrace(t, testProgram)
	exempt := ccc.ProgramIdempotentPCs(trace)
	// The program never touches some range edges, so probe a read and a
	// write at the words on either side of each TEXT, volatile and memory
	// bound.
	textEnd := (img.TextEnd + 3) &^ 3
	for _, addr := range []uint32{
		img.TextStart, textEnd - 4, textEnd,
		img.DataEnd - 4, img.DataEnd, img.ReservedBase - 4, img.ReservedBase,
		armsim.MemSize - 4, armsim.MemSize,
	} {
		for _, write := range []bool{false, true} {
			trace = append(trace, armsim.Access{Write: write, Addr: addr, Size: 4, Cycle: total})
		}
	}
	// A TEXT end inside a word: the detector rounds it up to cover the
	// whole word, and so must the faText column.
	unaligned := diffCase{"text-unaligned",
		clank.Config{ReadFirst: 4, Opts: clank.OptIgnoreText, TextStart: img.TextStart, TextEnd: textEnd - 2},
		func() Options { return Options{} }}

	written := map[uint32]bool{} // words some memory store touches
	for _, a := range trace {
		if a.Write && a.Addr < armsim.MemSize {
			written[a.Addr>>2] = true
		}
	}

	var seen [faVolatile << 1]int // accesses seen with each flag bit set
	for _, c := range append(diffCases(img, exempt), unaligned) {
		cfg, mixed := c.cfg, c.mkOpts().Mixed
		lo, hi, textOn := cfg.TextWords()
		tr := NewBatchTrace(trace, total, cfg.TextStart, cfg.TextEnd)
		flags := tr.classFor(cfg.ExemptPCs, mixed).flags
		if len(flags) != len(trace) {
			t.Fatalf("%s: flag column holds %d entries for %d accesses", c.name, len(flags), len(trace))
		}
		for i, a := range trace {
			f := flags[i]
			output := a.Addr >= armsim.MemSize
			w := a.Addr >> 2
			nr := noReportModel(trace, written, i)
			for _, p := range []struct {
				bit  uint8
				pred bool
			}{
				{faWrite, a.Write},
				{faOutput, output},
				{faNoWrite, nr == faNoWrite},
				{faShadowed, nr == faShadowed},
				{faExempt, cfg.ExemptPCs[a.PC]},
				{faVolatile, mixed != nil && !output && a.Addr >= mixed.VolatileStart && a.Addr < mixed.VolatileEnd},
			} {
				if (f&p.bit != 0) != p.pred {
					t.Fatalf("%s: access %d (%+v): flag %07b is %v, predicate says %v",
						c.name, i, a, p.bit, f&p.bit != 0, p.pred)
				}
			}
			if !output {
				if got, pred := f&faText != 0 && textOn, textOn && w >= lo && w < hi; got != pred {
					t.Fatalf("%s: access %d (%+v): faText&&active is %v, Config.TextWords says %v",
						c.name, i, a, got, pred)
				}
			} else if f&faText != 0 {
				t.Fatalf("%s: access %d: output record classified TEXT", c.name, i)
			}
			for bit := uint8(1); bit <= faVolatile; bit <<= 1 {
				if f&bit != 0 {
					seen[bit]++
				}
			}
		}
	}
	// Every flag must be set somewhere, or its row of the table pins
	// nothing.
	for _, bit := range []uint8{faWrite, faOutput, faText, faNoWrite, faShadowed, faExempt, faVolatile} {
		if seen[bit] == 0 {
			t.Errorf("no access classified with flag %07b across diffCases", bit)
		}
	}
}

// noReportTrace decodes fuzz bytes into a trace, three bytes per access:
// op picks load or store (bit 3), the access size (op%3), an
// inconsistent load value (bit 4) and, through the PC, exemption; w picks
// a region and a word in it; x the byte offset and the value. The
// regions are TEXT [0, 0x100), a data window, the top of memory (its
// last word is the last bit of the written-word bitset) and the output
// region, so word, halfword and byte stores, output stores and TEXT
// writes all collide with loads. A load observes the word's last stored
// value, as a recorded trace does, unless bit 4 asks for a stray one.
func noReportTrace(data []byte) []armsim.Access {
	var trace []armsim.Access
	mem := map[uint32]uint32{}
	for i := 0; i+2 < len(data) && len(trace) < 1024; i += 3 {
		op, w, x := data[i], data[i+1], data[i+2]
		size := uint8(1) << (op % 3)
		addr := [4]uint32{0, 0x1000, armsim.MemSize - 0x100, armsim.MemSize}[w>>6] + uint32(w&63)*4
		addr += uint32(x) % 4 &^ (uint32(size) - 1)
		a := armsim.Access{Write: op&8 != 0, Addr: addr, Size: size, Value: mem[addr>>2],
			PC: uint32(op) * 2, Cycle: uint64(i)}
		// Values come from a small set, so stray loads often match a
		// word's value and stores often overwrite a value just read.
		if a.Write {
			a.Prev, a.Value = a.Value, uint32(x>>4&3)
			mem[addr>>2] = a.Value
		} else if op&16 != 0 {
			a.Value = uint32(x >> 6)
		}
		trace = append(trace, a)
	}
	return trace
}

// noReportModel is the direct model of the faNoReport bits of access i:
// faNoWrite for a memory load of a word no store touches, faShadowed for
// a memory load of a stored word whose next access is a load of the same
// value.
func noReportModel(trace []armsim.Access, stored map[uint32]bool, i int) uint8 {
	a := trace[i]
	if a.Write || a.Addr >= armsim.MemSize {
		return 0
	}
	w := a.Addr >> 2
	if !stored[w] {
		return faNoWrite
	}
	for _, b := range trace[i+1:] {
		if b.Addr < armsim.MemSize && b.Addr>>2 == w {
			if !b.Write && b.Value == a.Value {
				return faShadowed
			}
			return 0
		}
	}
	return 0
}

// noReportJobs are monitored jobs on both replay cores, with a wrongly
// exempted PC set so that the traces raise real violations. Each call
// builds fresh power supplies.
func noReportJobs() []Job {
	exempt := map[uint32]bool{}
	for pc := uint32(0); pc < 512; pc += 6 {
		exempt[pc] = true
	}
	text := func(c clank.Config) clank.Config {
		c.Opts |= clank.OptIgnoreText
		c.TextStart, c.TextEnd = 0, 0x100
		return c
	}
	pow := func(seed int64) Options {
		return Options{Verify: true, ProgressDefault: 100,
			Supply: power.NewSupply(power.Exponential{Mean: 400, Min: 100}, seed)}
	}
	return []Job{
		{Config: text(clank.Config{ReadFirst: 4, WriteFirst: 2, WriteBack: 2, Opts: clank.OptAll, ExemptPCs: exempt}),
			Opts: Options{Verify: true}},
		{Config: clank.Config{ReadFirst: 2, WriteFirst: 1, WriteBack: 1, Opts: clank.OptLatestCheckpoint, ExemptPCs: exempt},
			Opts: Options{Verify: true, PerfWatchdog: 60}},
		{Config: text(clank.Config{ReadFirst: 8, ExemptPCs: exempt}), Opts: Options{Verify: true,
			Mixed: &MixedVolatility{VolatileStart: 0x1080, VolatileEnd: 0x1100, StackTop: 0x1100}}},
		{Config: text(clank.Config{ReadFirst: 4, WriteFirst: 2, WriteBack: 2, Opts: clank.OptAll, ExemptPCs: exempt}),
			Opts: pow(1)},
		{Config: clank.Config{ReadFirst: 2, WriteFirst: 1, WriteBack: 1, ExemptPCs: exempt}, Opts: pow(2)},
	}
}

// runNoReportJobs replays noReportJobs over tr and returns each job's
// Result and error text.
func runNoReportJobs(t *testing.T, tr *BatchTrace) ([]Result, []string) {
	jobs := noReportJobs()
	b, err := NewBatch(tr, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	b.Run(res, errs)
	msgs := make([]string, len(jobs))
	for i, e := range errs {
		if e != nil {
			msgs[i] = e.Error()
		}
	}
	return res, msgs
}

// checkNoWriteColumn asserts the faNoReport soundness contract on one
// trace. The trace carries exactly
// the model's faNoWrite and faShadowed bits (so every load of a
// never-stored word is flagged, and a faNoWrite access is a load whose
// word no store touches), and every access a monitored skip run covers is
// faNoReport. Replaying monitored jobs with the bits stripped — every
// read reported to the monitor — gives the same Results and the same
// errors. It returns the trace's faNoWrite loads, faShadowed loads and
// unflagged memory loads, and the number of jobs that failed.
func checkNoWriteColumn(t *testing.T, data []byte) (noWrite, shadowed, unflagged, failed int) {
	trace := noReportTrace(data)
	stored := map[uint32]bool{}
	for _, a := range trace {
		if a.Write && a.Addr < armsim.MemSize {
			stored[a.Addr>>2] = true
		}
	}
	total := uint64(3*len(trace) + 1)
	tr := NewBatchTrace(trace, total, 0, 0x100)
	for i, a := range trace {
		got, want := tr.flags[i]&faNoReport, noReportModel(trace, stored, i)
		if got != want {
			t.Fatalf("access %d (%+v): faNoReport bits %07b, want %07b", i, a, got, want)
		}
		if !a.Write && a.Addr < armsim.MemSize {
			switch got {
			case faNoWrite:
				noWrite++
			case faShadowed:
				shadowed++
			default:
				unflagged++
			}
		}
	}
	skip := tr.skipFor(&tr.base, true)
	for i, n := range skip {
		for j := i; j < i+int(n); j++ {
			if tr.flags[j]&faNoReport == 0 {
				t.Fatalf("monitored skip run at %d (length %d) covers reported access %d (%+v)", i, n, j, trace[j])
			}
		}
	}

	res, msgs := runNoReportJobs(t, tr)
	all := NewBatchTrace(trace, total, 0, 0x100)
	for i := range all.flags {
		all.flags[i] &^= faNoReport
	}
	wantRes, wantMsgs := runNoReportJobs(t, all)
	for i := range res {
		if res[i] != wantRes[i] || msgs[i] != wantMsgs[i] {
			t.Fatalf("job %d: with faNoReport %+v %q\n  every read reported %+v %q",
				i, res[i], msgs[i], wantRes[i], wantMsgs[i])
		}
		if msgs[i] != "" {
			failed++
		}
	}
	return noWrite, shadowed, unflagged, failed
}

// FuzzNoWriteColumn checks the never-written and shadowed-read bits
// against a direct model, and the monitor verdicts they save against a
// replay that reports every read, on arbitrary traces. CI runs it as a
// 30 s smoke; TestNoWriteColumnQuick runs the property on random inputs
// in every test run.
func FuzzNoWriteColumn(f *testing.F) {
	// A word store, a byte store and a halfword store to three data
	// words, loads of them and of a fresh word, a TEXT write and load, an
	// output store, and a load of the last word of memory.
	f.Add([]byte{8 + 2, 64, 0, 8, 65, 3, 8 + 1, 66, 2, 2, 64, 0, 0, 65, 1, 2, 67, 0,
		8 + 2, 5, 9, 2, 5, 0, 2, 6, 0, 8 + 2, 192, 1, 2, 191, 0})
	// A read, a re-read, an exempt overwrite (pc 24) and a stray re-read.
	f.Add([]byte{2, 70, 0, 2, 70, 0, 8 + 4, 70, 5, 16 + 2, 70, 9, 2, 71, 0})
	f.Fuzz(func(t *testing.T, data []byte) { checkNoWriteColumn(t, data) })
}

// TestNoWriteColumnQuick is the tier-1 run of FuzzNoWriteColumn's
// property over random traces of up to 300 accesses.
func TestNoWriteColumnQuick(t *testing.T) {
	var noWrite, shadowed, unflagged, failed int
	prop := func(data []byte) bool {
		nw, sh, un, fl := checkNoWriteColumn(t, data)
		noWrite, shadowed, unflagged, failed = noWrite+nw, shadowed+sh, unflagged+un, failed+fl
		return !t.Failed()
	}
	gen := func(args []reflect.Value, r *rand.Rand) {
		data := make([]byte, 3*(1+r.Intn(300)))
		r.Read(data)
		// Narrow most words to a few per region so that loads meet
		// earlier loads and stores of their word.
		for i := 1; i < len(data); i += 3 {
			if r.Intn(4) != 0 {
				data[i] &^= 0x3c
			}
		}
		args[0] = reflect.ValueOf(data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Values: gen}); err != nil {
		t.Fatal(err)
	}
	// Every class must occur, or the property pins nothing.
	if noWrite == 0 || shadowed == 0 || unflagged == 0 || failed == 0 {
		t.Fatalf("random traces gave %d never-written, %d shadowed and %d reported loads and %d failed jobs",
			noWrite, shadowed, unflagged, failed)
	}
	t.Logf("%d never-written, %d shadowed and %d reported loads; %d failed jobs", noWrite, shadowed, unflagged, failed)
}
