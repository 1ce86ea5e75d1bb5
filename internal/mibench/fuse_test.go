package mibench

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/armsim"
)

// TestFusedContinuousDifferential runs every kernel to completion on both
// fusion tiers — fused superinstructions (the NewMachine default) and runs
// of length one (DisableFusion) — and requires bit-identical final
// architectural state: cycle count, retired instructions, registers, flags,
// the entire memory image, and the output log. Build's Outputs and Cycles,
// which it derives from its single traced run, must equal the baseline
// machine's. The armsim package's
// external test of the same name adds the reference interpreter as a third
// leg, which only armsim's own tests can reach.
func TestFusedContinuousDifferential(t *testing.T) {
	type engine struct {
		name string
		tune func(*armsim.Machine)
	}
	engines := []engine{
		{"fused", func(m *armsim.Machine) {
			if !m.CPU.FusionEnabled() {
				t.Error("fusion not enabled by default")
			}
		}},
		{"predecode", func(m *armsim.Machine) { m.CPU.DisableFusion() }},
	}
	for _, b := range append(All(), DS()) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			c := build(t, b.Name)
			machines := make([]*armsim.Machine, len(engines))
			for i, e := range engines {
				m := armsim.NewMachine()
				e.tune(m)
				if err := m.Boot(c.Image.Bytes); err != nil {
					t.Fatalf("%s boot: %v", e.name, err)
				}
				if _, err := m.Run(maxBenchCycles); err != nil {
					t.Fatalf("%s run: %v", e.name, err)
				}
				machines[i] = m
			}
			ref := machines[len(machines)-1] // runs of length one: the baseline
			for i, m := range machines[:len(machines)-1] {
				name := engines[i].name
				if m.CPU.Cycle != ref.CPU.Cycle {
					t.Errorf("%s cycle count %d != predecode %d", name, m.CPU.Cycle, ref.CPU.Cycle)
				}
				if m.CPU.Insns != ref.CPU.Insns {
					t.Errorf("%s retired %d insns != predecode %d", name, m.CPU.Insns, ref.CPU.Insns)
				}
				if m.CPU.R != ref.CPU.R {
					t.Errorf("%s final registers diverge:\n  %v\n  %v", name, m.CPU.R, ref.CPU.R)
				}
				if m.CPU.N != ref.CPU.N || m.CPU.Z != ref.CPU.Z ||
					m.CPU.C != ref.CPU.C || m.CPU.V != ref.CPU.V {
					t.Errorf("%s final flags diverge", name)
				}
				if !bytes.Equal(m.Mem.Bytes(), ref.Mem.Bytes()) {
					t.Errorf("%s final memory diverges", name)
				}
				if len(m.Mem.Outputs) != len(ref.Mem.Outputs) {
					t.Fatalf("%s emitted %d outputs, predecode %d",
						name, len(m.Mem.Outputs), len(ref.Mem.Outputs))
				}
				for j := range m.Mem.Outputs {
					if m.Mem.Outputs[j] != ref.Mem.Outputs[j] {
						t.Errorf("%s output %d is %#x, predecode %#x",
							name, j, m.Mem.Outputs[j], ref.Mem.Outputs[j])
						break
					}
				}
			}
			if !slices.Equal(c.Outputs, ref.Mem.Outputs) {
				t.Errorf("Build outputs %#x != continuous run %#x", c.Outputs, ref.Mem.Outputs)
			}
			if c.Cycles != ref.CPU.Cycle {
				t.Errorf("Build cycles %d != continuous run %d", c.Cycles, ref.CPU.Cycle)
			}
		})
	}
}
