package hwcost

import (
	"testing"

	"repro/internal/clank"
)

// TestTable2Calibration pins the model to the paper's synthesized numbers.
func TestTable2Calibration(t *testing.T) {
	cases := []struct {
		cfg          clank.Config
		lut, ff, mem float64
		avg          float64
	}{
		{clank.Config{ReadFirst: 16}, 2.46, 0.74, 0.18, 1.13},
		{clank.Config{ReadFirst: 8, WriteFirst: 8}, 2.35, 0.74, 0.18, 1.09},
		{clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2}, 2.14, 0.70, 0.21, 1.01},
		{clank.Config{ReadFirst: 16, WriteFirst: 8, WriteBack: 4, AddrPrefix: 4, PrefixLowBits: 6},
			3.40, 1.52, 0.26, 1.73},
	}
	for _, tc := range cases {
		e := ForConfig(tc.cfg)
		check := func(name string, got, want, tol float64) {
			if d := got - want; d > tol || -d > tol {
				t.Errorf("%s %s = %.3f, paper %.3f", tc.cfg, name, got, want)
			}
		}
		check("LUT", e.LUT, tc.lut, 0.12)
		check("FF", e.FF, tc.ff, 0.12)
		check("Mem", e.Mem, tc.mem, 0.05)
		check("Avg", e.Avg(), tc.avg, 0.08)
	}
}

func TestAreaGrowsWithBuffers(t *testing.T) {
	small := ForConfig(clank.Config{ReadFirst: 4})
	big := ForConfig(clank.Config{ReadFirst: 32})
	if big.LUT <= small.LUT || big.FF <= small.FF {
		t.Error("area did not grow with buffer entries")
	}
}

func TestAPBSavesComparatorsButAddsLogic(t *testing.T) {
	flat := ForConfig(clank.Config{ReadFirst: 32, WriteFirst: 16})
	apb := ForConfig(clank.Config{ReadFirst: 32, WriteFirst: 16, AddrPrefix: 4, PrefixLowBits: 6})
	// The APB shrinks per-entry comparators dramatically; at large entry
	// counts the fixed logic charge is amortized away.
	if apb.LUT >= flat.LUT {
		t.Errorf("48-entry APB config should be cheaper in LUTs: %.2f vs %.2f", apb.LUT, flat.LUT)
	}
}

func TestTotalOverheadCompounds(t *testing.T) {
	e := Estimate{LUT: 3, FF: 1.5, Mem: 0.3} // Avg = 1.6%
	total := TotalOverhead(e, 0.06)
	want := 1.016*1.06 - 1
	if d := total - want; d > 1e-9 || -d > 1e-9 {
		t.Errorf("TotalOverhead = %v, want %v", total, want)
	}
}
