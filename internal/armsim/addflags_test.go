package armsim

import (
	"math/rand"
	"testing"
)

// TestAddFlagsMatchesAddWithCarry proves the bit-twiddled addFlags (the
// inlinable executor path) identical to the ARM AddWithCarry pseudocode
// reference: same result, same NZCV, over the carry/overflow edge lattice
// crossed with itself and a large seeded random sweep.
func TestAddFlagsMatchesAddWithCarry(t *testing.T) {
	check := func(x, y uint32, ci bool) {
		t.Helper()
		wantR, wantC, wantV := addWithCarry(x, y, ci)
		var c CPU
		gotR := c.addFlags(x, y, ci)
		if gotR != wantR || c.C != wantC || c.V != wantV ||
			c.N != (wantR&0x80000000 != 0) || c.Z != (wantR == 0) {
			t.Fatalf("addFlags(%#x, %#x, %v) = %#x N=%v Z=%v C=%v V=%v; reference %#x C=%v V=%v",
				x, y, ci, gotR, c.N, c.Z, c.C, c.V, wantR, wantC, wantV)
		}
	}

	edges := []uint32{
		0, 1, 2, 0x7FFFFFFE, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFE, 0xFFFFFFFF,
	}
	for _, x := range edges {
		for _, y := range edges {
			check(x, y, false)
			check(x, y, true)
		}
	}

	rng := rand.New(rand.NewSource(0x5CA1AB1E))
	n := 1_000_000
	if testing.Short() {
		n = 10_000
	}
	for i := 0; i < n; i++ {
		check(rng.Uint32(), rng.Uint32(), rng.Uint32()&1 != 0)
	}
}

// addWithCarry implements the ARM AddWithCarry pseudocode via 64-bit
// widening, returning the result and updating no state. It is the
// reference model for addFlags (TestAddFlagsMatchesAddWithCarry proves
// them identical); the executors call addFlags, whose bit-twiddled flag
// formulas fit the inliner budget where this function's widened
// arithmetic does not.
func addWithCarry(x, y uint32, carryIn bool) (result uint32, carryOut, overflow bool) {
	ci := uint64(0)
	if carryIn {
		ci = 1
	}
	usum := uint64(x) + uint64(y) + ci
	ssum := int64(int32(x)) + int64(int32(y)) + int64(ci)
	result = uint32(usum)
	carryOut = usum != uint64(result)
	overflow = ssum != int64(int32(result))
	return result, carryOut, overflow
}
