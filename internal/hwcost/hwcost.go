// Package hwcost estimates the FPGA-area overhead of a Clank hardware
// configuration (paper Table 2). The paper synthesized four Pareto-optimal
// configurations on a Xilinx VC709 with Vivado; this package replaces the
// synthesis flow with an analytical model whose three components follow the
// hardware structure and whose coefficients are calibrated so the paper's
// published configurations reproduce the published percentages:
//
//   - LUTs grow with the total comparator width of the fully-associative
//     buffers (every entry is matched in parallel) plus a fixed logic
//     charge for the Write-back data path and the two-level Address Prefix
//     match;
//   - flip-flops grow with the stored bits plus the APB pipeline
//     registers;
//   - BlockRAM overhead is a small constant plus the Write-back value
//     store and the APB prefix store.
//
// Following the paper, the average of the three (the Table 2 "Avg" column,
// e.g. (2.46+0.74+0.18)/3 = 1.13 for 16,0,0,0) is used as the realistic
// power-overhead proxy: Vivado's power analyzer reported all configurations
// within tool noise, so area stands in for power.
package hwcost

import "repro/internal/clank"

// Estimate is a percentage overhead relative to the bare Cortex-M0+.
type Estimate struct {
	LUT float64
	FF  float64
	Mem float64
}

// Avg is the mean of the three components — the paper's hardware overhead
// summary and its power proxy.
func (e Estimate) Avg() float64 { return (e.LUT + e.FF + e.Mem) / 3 }

// Model coefficients (percent per unit), calibrated to Table 2.
const (
	lutPerCmpBit = 0.005 // parallel CAM comparators
	lutWBLogic   = 0.05  // Write-back forwarding/merge logic
	lutAPBLogic  = 1.75  // two-level prefix match and tag mux
	ffPerBit     = 0.00154
	ffAPBLogic   = 0.80 // prefix registers and tag pipeline
	memBase      = 0.18
	memPerWB     = 0.015 // value store
	memAPB       = 0.02
)

// ForConfig estimates the area overhead of cfg.
func ForConfig(cfg clank.Config) Estimate {
	entryBits := 30
	if cfg.AddrPrefix > 0 {
		tag := 0
		for 1<<tag < cfg.AddrPrefix {
			tag++
		}
		entryBits = cfg.PrefixLowBits + tag
	}
	cmpBits := (cfg.ReadFirst + cfg.WriteFirst + cfg.WriteBack) * entryBits
	if cfg.AddrPrefix > 0 {
		cmpBits += cfg.AddrPrefix * (30 - cfg.PrefixLowBits)
	}
	var e Estimate
	e.LUT = lutPerCmpBit * float64(cmpBits)
	if cfg.WriteBack > 0 {
		e.LUT += lutWBLogic
	}
	if cfg.AddrPrefix > 0 {
		e.LUT += lutAPBLogic
	}
	e.FF = ffPerBit * float64(cfg.BufferBits())
	if cfg.AddrPrefix > 0 {
		e.FF += ffAPBLogic
	}
	e.Mem = memBase + memPerWB*float64(cfg.WriteBack)
	if cfg.AddrPrefix > 0 {
		e.Mem += memAPB
	}
	return e
}

// TotalOverhead combines a hardware estimate with a software run-time
// overhead into the paper's total run-time overhead (Figure 7): the added
// hardware consumes harvested energy that would otherwise power cycles, so
// the two factors compound.
func TotalOverhead(e Estimate, sw float64) float64 {
	return (1+e.Avg()/100)*(1+sw) - 1
}
