package armsim

// Test-only exports: the external armsim_test package reaches the reference
// interpreter (reference_test.go) through these.

// NewRefMachine returns a machine for the reference interpreter: memory and
// a CPU with no decode cache.
func NewRefMachine() *Machine { return newRefMachine() }

// RunRef runs the reference interpreter until Halt (ErrHalted), another
// error, or Cycle reaching maxCycles (nil): RunTo's contract.
func (c *CPU) RunRef(maxCycles uint64) error { return c.runRef(maxCycles) }
