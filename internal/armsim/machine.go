package armsim

import (
	"errors"
	"fmt"
)

// Machine bundles a CPU with its memory and a run loop. It executes
// programs continuously (no power failures); the intermittent package layers
// power cycling and Clank on top.
type Machine struct {
	CPU *CPU
	Mem *Memory
}

// NewMachine returns a machine with fresh memory and a CPU wired straight to
// it (no access monitors), with the predecoded instruction cache enabled.
func NewMachine() *Machine {
	mem := NewMemory()
	cpu := NewCPU(mem)
	cpu.EnablePredecode(mem)
	return &Machine{CPU: cpu, Mem: mem}
}

// Boot loads an image at address 0 and resets the CPU using the ARM vector
// table convention: word 0 holds the initial SP, word 1 the reset vector.
func (m *Machine) Boot(image []byte) error {
	if err := m.Mem.ResetTo(image); err != nil {
		return err
	}
	sp := m.Mem.ReadWord(0)
	entry := m.Mem.ReadWord(4)
	m.CPU.ResetInto(sp, entry)
	m.CPU.Cycle = 0
	return nil
}

// Run steps the CPU until it halts (BKPT) or exceeds maxCycles, returning
// the cycle count at halt. Exceeding the budget is an error: benchmarks are
// finite programs and an overrun indicates a compiler or simulator bug.
func (m *Machine) Run(maxCycles uint64) (uint64, error) {
	if err := m.CPU.RunTo(maxCycles); err != nil {
		if errors.Is(err, ErrHalted) {
			return m.CPU.Cycle, nil
		}
		return m.CPU.Cycle, err
	}
	return m.CPU.Cycle, fmt.Errorf("armsim: exceeded %d cycles without halting (pc %#x)", maxCycles, m.CPU.R[PC])
}
