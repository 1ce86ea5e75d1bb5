package armsim_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/mibench"
)

// TestFusedContinuousDifferential runs every MiBench kernel to completion on
// three engines — fused superinstructions (the NewMachine default), runs of
// length one (DisableFusion), and the reference interpreter — and requires
// bit-identical final architectural state: cycle count, retired
// instructions, registers, flags, the entire memory image, and the output
// log. This is the whole-program complement to the per-encoding and
// per-step differentials: a kernel run through real loop nests, function
// calls, and table walks leaves no room for a decode or fusion bug to hide
// in aggregate state.
func TestFusedContinuousDifferential(t *testing.T) {
	const maxCycles = 500_000_000
	type engine struct {
		name string
		boot func() *armsim.Machine
		run  func(*armsim.Machine) error
	}
	runTo := func(m *armsim.Machine) error { return m.CPU.RunTo(maxCycles) }
	engines := []engine{
		{"fused", func() *armsim.Machine {
			m := armsim.NewMachine()
			if !m.CPU.FusionEnabled() {
				t.Error("fusion not enabled by default")
			}
			return m
		}, runTo},
		{"predecode", func() *armsim.Machine {
			m := armsim.NewMachine()
			m.CPU.DisableFusion()
			return m
		}, runTo},
		{"reference", armsim.NewRefMachine, func(m *armsim.Machine) error { return m.CPU.RunRef(maxCycles) }},
	}
	for _, b := range append(mibench.All(), mibench.DS()) {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			img, err := ccc.Compile(b.Source)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			machines := make([]*armsim.Machine, len(engines))
			for i, e := range engines {
				m := e.boot()
				if err := m.Boot(img.Bytes); err != nil {
					t.Fatalf("%s boot: %v", e.name, err)
				}
				if err := e.run(m); !errors.Is(err, armsim.ErrHalted) {
					t.Fatalf("%s run ended with %v at pc %#x, want a halt", e.name, err, m.CPU.R[armsim.PC])
				}
				machines[i] = m
			}
			ref := machines[len(machines)-1] // the reference interpreter: ground truth
			for i, m := range machines[:len(machines)-1] {
				name := engines[i].name
				if m.CPU.Cycle != ref.CPU.Cycle {
					t.Errorf("%s cycle count %d != reference %d", name, m.CPU.Cycle, ref.CPU.Cycle)
				}
				if m.CPU.Insns != ref.CPU.Insns {
					t.Errorf("%s retired %d insns != reference %d", name, m.CPU.Insns, ref.CPU.Insns)
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
					t.Fatalf("%s emitted %d outputs, reference %d",
						name, len(m.Mem.Outputs), len(ref.Mem.Outputs))
				}
				for j := range m.Mem.Outputs {
					if m.Mem.Outputs[j] != ref.Mem.Outputs[j] {
						t.Errorf("%s output %d is %#x, reference %#x",
							name, j, m.Mem.Outputs[j], ref.Mem.Outputs[j])
						break
					}
				}
			}
		})
	}
}
