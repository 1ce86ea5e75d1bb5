package policysim

import (
	"testing"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
)

// TestClassificationMatchesPredicates pins the classification columns to
// the per-access predicates they replace: for every diffCases config, the
// flags NewBatchTrace, NewBatchTraceCols and classFor bake in must equal,
// access for access, the tests a row-by-row replay would evaluate inline —
// faOutput is Addr >= MemSize, faText (when the detector's TEXT window is
// active) is membership in clank.TextWords, faExempt is ExemptPCs[pc], and
// faVolatile is the Mixed range, tested only after the output branch.
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
	tc := armsim.ColsFromRows(trace, total)
	// A TEXT end inside a word: the detector rounds it up to cover the
	// whole word, and so must the faText column.
	unaligned := diffCase{"text-unaligned",
		clank.Config{ReadFirst: 4, Opts: clank.OptIgnoreText, TextStart: img.TextStart, TextEnd: textEnd - 2},
		func() Options { return Options{} }}

	var seen [faVolatile << 1]int // accesses seen with each flag bit set
	for _, c := range append(diffCases(img, exempt), unaligned) {
		cfg, mixed := c.cfg, c.mkOpts().Mixed
		lo, hi, textOn := clank.New(cfg).TextWords()
		rows := NewBatchTrace(trace, total, cfg.TextStart, cfg.TextEnd)
		cols := NewBatchTraceCols(tc, cfg.TextStart, cfg.TextEnd)
		rowFlags, rowSkip := rows.classFor(cfg.ExemptPCs, mixed)
		colFlags, colSkip := cols.classFor(cfg.ExemptPCs, mixed)
		if len(rowFlags) != len(trace) || len(colFlags) != len(trace) {
			t.Fatalf("%s: flag columns hold %d and %d entries for %d accesses",
				c.name, len(rowFlags), len(colFlags), len(trace))
		}
		for i, a := range trace {
			f := rowFlags[i]
			if colFlags[i] != f || colSkip[i] != rowSkip[i] {
				t.Fatalf("%s: access %d: NewBatchTraceCols flags %05b skip %d, NewBatchTrace %05b skip %d",
					c.name, i, colFlags[i], colSkip[i], f, rowSkip[i])
			}
			output := a.Addr >= armsim.MemSize
			w := a.Addr >> 2
			for _, p := range []struct {
				bit  uint8
				pred bool
			}{
				{faWrite, a.Write},
				{faOutput, output},
				{faExempt, cfg.ExemptPCs[a.PC]},
				{faVolatile, mixed != nil && !output && a.Addr >= mixed.VolatileStart && a.Addr < mixed.VolatileEnd},
			} {
				if (f&p.bit != 0) != p.pred {
					t.Fatalf("%s: access %d (%+v): flag %05b is %v, predicate says %v",
						c.name, i, a, p.bit, f&p.bit != 0, p.pred)
				}
			}
			if !output {
				if got, pred := f&faText != 0 && textOn, textOn && w >= lo && w < hi; got != pred {
					t.Fatalf("%s: access %d (%+v): faText&&active is %v, clank.TextWords says %v",
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
	for _, bit := range []uint8{faWrite, faOutput, faText, faExempt, faVolatile} {
		if seen[bit] == 0 {
			t.Errorf("no access classified with flag %05b across diffCases", bit)
		}
	}
}
