package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clank"
	"repro/internal/hwcost"
)

func quickOpts() Options {
	return Options{Quick: true, Seeds: []int64{11}, Verify: true}.withDefaults()
}

func TestTable1(t *testing.T) {
	d, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 23 {
		t.Fatalf("got %d rows, want 23", len(d.Rows))
	}
	for _, r := range d.Rows {
		if r.SizeIncrease <= 0 {
			t.Errorf("%s: size increase %.4f, want > 0", r.Name, r.SizeIncrease)
		}
	}
	// Small benchmarks must show large relative size increases, big ones
	// tiny ones (the paper's pattern: randmath 28.84%% vs sha 0.00%%).
	byName := map[string]Table1Row{}
	for _, r := range d.Rows {
		byName[r.Name] = r
	}
	if byName["randmath"].SizeIncrease <= byName["sha"].SizeIncrease {
		t.Errorf("size-increase pattern inverted: randmath %.4f <= sha %.4f",
			byName["randmath"].SizeIncrease, byName["sha"].SizeIncrease)
	}
	if !strings.Contains(d.Format(), "randmath") {
		t.Error("format missing benchmarks")
	}
}

// TestFigure5Shape checks the paper's claims: every added buffer type
// improves (or matches) the reachable frontier, and overhead decreases
// with more bits within a family.
func TestFigure5Shape(t *testing.T) {
	d, err := Figure5(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Families) != 5 {
		t.Fatalf("got %d families", len(d.Families))
	}
	best := func(f Family) float64 {
		b := f.Frontier[0].Overhead
		for _, p := range f.Frontier {
			if p.Overhead < b {
				b = p.Overhead
			}
		}
		return b
	}
	// Monotone within each frontier by construction; check families
	// improve cumulatively at their best points.
	r, rw, rwb := best(d.Families[0]), best(d.Families[1]), best(d.Families[2])
	rwba, rwbac := best(d.Families[3]), best(d.Families[4])
	if rw > r*1.02+1e-9 {
		t.Errorf("adding Write-first hurt the frontier: %.4f vs %.4f", rw, r)
	}
	if rwb > rw*1.02+1e-9 {
		t.Errorf("adding Write-back hurt the frontier: %.4f vs %.4f", rwb, rw)
	}
	if rwbac > rwba*1.05+1e-9 {
		t.Errorf("compiler support hurt the frontier: %.4f vs %.4f", rwbac, rwba)
	}
	t.Logf("best overheads: R=%.3f R+W=%.3f R+W+B=%.3f R+W+B+A=%.3f +C=%.3f", r, rw, rwb, rwba, rwbac)
}

func TestFigure6Shape(t *testing.T) {
	d, err := Figure6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Settings) != 8 {
		t.Fatalf("got %d settings, want 8", len(d.Settings))
	}
	// Profiled (best-per-benchmark) must never lose to a fixed setting at
	// the same configuration grid's best point.
	best := map[string]float64{}
	for _, f := range d.Settings {
		b := f.Frontier[0].Overhead
		for _, p := range f.Frontier {
			if p.Overhead < b {
				b = p.Overhead
			}
		}
		best[f.Name] = b
	}
	for name, v := range best {
		if best["Profiled"] > v+1e-9 {
			t.Errorf("Profiled (%.4f) worse than %s (%.4f)", best["Profiled"], name, v)
		}
	}
}

func TestTable2AndFigure7(t *testing.T) {
	o := quickOpts()
	d, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 5 {
		t.Fatalf("got %d rows", len(d.Rows))
	}
	// HW model must reproduce the paper's published area percentages.
	wantAvg := []float64{1.13, 1.09, 1.01, 1.73, 1.73}
	for i, r := range d.Rows {
		if diff := r.Avg - wantAvg[i]; diff > 0.06 || diff < -0.06 {
			t.Errorf("row %s: Avg HW %.2f%%, paper %.2f%%", r.Name, r.Avg, wantAvg[i])
		}
	}
	// SW overhead must decrease monotonically down the table (the
	// paper's 33.75 -> 27.32 -> 15.66 -> 8.03 -> 5.98 progression). The
	// 8,8,0,0 -> 8,4,2,0 step is the reproduction's one documented
	// deviation (EXPERIMENTS.md: 16.7% -> 18.9% measured at full scale —
	// our codegen keeps store working sets small enough that halving the
	// Write-first entries costs more than the two Write-back entries
	// recover), so that pair gets a looser bound.
	for i := 1; i < len(d.Rows); i++ {
		tol := 1.08
		if d.Rows[i].Name == "8,4,2,0" {
			tol = 1.25
		}
		if d.Rows[i].AvgSW > d.Rows[i-1].AvgSW*tol+1e-9 {
			t.Errorf("SW overhead rose from %s (%.3f) to %s (%.3f)",
				d.Rows[i-1].Name, d.Rows[i-1].AvgSW, d.Rows[i].Name, d.Rows[i].AvgSW)
		}
	}
	t.Log("\n" + d.Format())

	f7, err := Figure7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Rows) != 23 {
		t.Fatalf("figure 7: %d rows", len(f7.Rows))
	}
	if f7.Average[4] >= f7.Average[0] {
		t.Errorf("best config average (%.3f) not better than worst (%.3f)",
			f7.Average[4], f7.Average[0])
	}
}

func TestFigure8Shape(t *testing.T) {
	d, err := Figure8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	first, last := d.Points[0], d.Points[len(d.Points)-1]
	// Checkpoint overhead falls with larger watchdog values; re-execution
	// rises (the paper's crossing curves).
	if first.Ckpt <= last.Ckpt {
		t.Errorf("checkpoint overhead did not fall: %.4f -> %.4f", first.Ckpt, last.Ckpt)
	}
	if first.Reexec >= last.Reexec {
		t.Errorf("re-execution overhead did not rise: %.4f -> %.4f", first.Reexec, last.Reexec)
	}
	// The combined curve is U-shaped: the minimum is interior or at the
	// analytic optimum's neighborhood.
	m := d.Minimum()
	if m.Combined > first.Combined || m.Combined > last.Combined {
		t.Error("combined curve has no interior minimum")
	}
	t.Log("\n" + d.Format())
}

func TestTable3Shape(t *testing.T) {
	d, err := Table3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		for _, r := range d.Rows {
			if strings.HasPrefix(r.Approach, name) {
				return r.Overhead
			}
		}
		t.Fatalf("missing row %s", name)
		return 0
	}
	clankOv := get("Clank")
	ratchet := get("Ratchet")
	hib := get("Hibernus")
	mementos := get("Mementos")
	if !(clankOv < ratchet && ratchet < mementos) {
		t.Errorf("ordering broken: clank %.3f, ratchet %.3f, mementos %.3f", clankOv, ratchet, mementos)
	}
	if !(clankOv < hib) {
		t.Errorf("clank %.3f not better than hibernus %.3f", clankOv, hib)
	}
	if mementos < 0.8 {
		t.Errorf("mementos overhead %.3f implausibly low (paper: 117-145%%)", mementos)
	}
	if clankOv > 0.25 {
		t.Errorf("clank overhead %.3f implausibly high (paper: ~6%%)", clankOv)
	}
	t.Log("\n" + d.Format())
}

func TestTable4Shape(t *testing.T) {
	d, err := Table4(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 6 {
		t.Fatalf("got %d rows", len(d.Rows))
	}
	// The paper's key observation: at a single Read-first entry (30
	// bits), mixed volatility beats wholly NV by a wide margin.
	mixed30, nv30 := d.Rows[0], d.Rows[3]
	if mixed30.Overhead >= nv30.Overhead {
		t.Errorf("mixed (%.3f) not better than wholly NV (%.3f) at 30 bits",
			mixed30.Overhead, nv30.Overhead)
	}
	t.Log("\n" + d.Format())
}

func TestHWCostCalibration(t *testing.T) {
	// The analytical area model must reproduce Table 2's published
	// numbers for the paper's four synthesized configurations.
	cases := []struct {
		cfg          clank.Config
		lut, ff, mem float64
	}{
		{clank.Config{ReadFirst: 16}, 2.46, 0.74, 0.18},
		{clank.Config{ReadFirst: 8, WriteFirst: 8}, 2.35, 0.74, 0.18},
		{clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2}, 2.14, 0.70, 0.21},
		{clank.Config{ReadFirst: 16, WriteFirst: 8, WriteBack: 4, AddrPrefix: 4, PrefixLowBits: 6}, 3.40, 1.52, 0.26},
	}
	for _, tc := range cases {
		e := hwcost.ForConfig(tc.cfg)
		if abs(e.LUT-tc.lut) > 0.12 || abs(e.FF-tc.ff) > 0.12 || abs(e.Mem-tc.mem) > 0.05 {
			t.Errorf("config %s: got LUT %.2f FF %.2f Mem %.2f, paper %.2f %.2f %.2f",
				tc.cfg, e.LUT, e.FF, e.Mem, tc.lut, tc.ff, tc.mem)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation recompiles the subset at three codegen levels")
	}
	d, err := Ablation(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Compiler) != 3 || len(d.Knockout) != 5 {
		t.Fatalf("rows: %d compiler, %d knockout", len(d.Compiler), len(d.Knockout))
	}
	// Disabling register allocation must not reduce average overhead: the
	// manufactured stack violations cost real checkpoints.
	avg := func(row []float64) float64 {
		s := 0.0
		for _, v := range row {
			s += v
		}
		return s / float64(len(row))
	}
	if avg(d.Compiler[1]) < avg(d.Compiler[0]) {
		t.Errorf("no-regalloc average %.3f below full codegen %.3f",
			avg(d.Compiler[1]), avg(d.Compiler[0]))
	}
	// Every knockout must be >= the full system on average.
	full := avg(d.Knockout[0])
	for i := 1; i < len(d.Knockout); i++ {
		if avg(d.Knockout[i]) < full*0.95 {
			t.Errorf("knockout %q average %.3f below full system %.3f",
				d.KnockoutNames[i], avg(d.Knockout[i]), full)
		}
	}
	t.Log("\n" + d.Format())
}

func TestPowerSweepShape(t *testing.T) {
	d, err := PowerSweep(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's section 7.4 relation: the minimum total overhead falls
	// monotonically with the average power-on time, tracking the
	// sqrt(2C/T) bound up to a program-behavior factor.
	for i := 1; i < len(d.Points); i++ {
		if d.Points[i].Combined >= d.Points[i-1].Combined {
			t.Errorf("combined overhead did not fall: %v -> %v at mean %d",
				d.Points[i-1].Combined, d.Points[i].Combined, d.Points[i].MeanOn)
		}
	}
	for _, p := range d.Points {
		if p.Combined < p.Theoretical*0.8 {
			t.Errorf("mean %d: measured %.4f below the theoretical floor %.4f",
				p.MeanOn, p.Combined, p.Theoretical)
		}
		if p.Combined > p.Theoretical*6 {
			t.Errorf("mean %d: measured %.4f far above the sqrt(2C/T) relation %.4f",
				p.MeanOn, p.Combined, p.Theoretical)
		}
	}
	t.Log("\n" + d.Format())
}

func TestCrossSchemeShape(t *testing.T) {
	d, err := CrossScheme(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Benchmarks) != 1 || len(d.Rows) != 3 {
		t.Fatalf("quick cross-scheme: %d benchmarks, %d rows", len(d.Benchmarks), len(d.Rows))
	}
	seen := map[string]bool{}
	for _, r := range d.Rows {
		seen[r.Scheme] = true
		if r.Avg <= 0 {
			t.Errorf("%s: non-positive overhead %.4f", r.Scheme, r.Avg)
		}
		if r.Ckpts[0] <= 0 {
			t.Errorf("%s: no checkpoints", r.Scheme)
		}
		if r.Footprint == 0 {
			t.Errorf("%s: zero footprint", r.Scheme)
		}
	}
	for _, name := range []string{"clank", "alpaca", "dica"} {
		if !seen[name] {
			t.Errorf("missing scheme row %q", name)
		}
	}
	if !strings.Contains(d.Format(), "alpaca") {
		t.Error("format missing scheme rows")
	}
	t.Log("\n" + d.Format())
}

// TestParallelForLowestIndexError: whichever worker fails first, the
// error returned is the lowest-index one, because every item below a
// failing item has been claimed, and a claimed item always runs.
func TestParallelForLowestIndexError(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		err := parallelFor(100, func(i int) error {
			if i == 3 || i == 4 || i == 50 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("trial %d: parallelFor returned %v, want item 3", trial, err)
		}
	}
	if err := parallelFor(0, func(int) error { return fmt.Errorf("ran") }); err != nil {
		t.Fatalf("empty parallelFor returned %v", err)
	}
}
