package power

import (
	"math"
	"testing"
)

// TestFaultStreamDeterministic pins the stream as a pure function of its
// seed: two streams with equal (seed, rate) agree draw for draw, and a
// different seed diverges somewhere in the first thousand draws.
func TestFaultStreamDeterministic(t *testing.T) {
	a := NewFaultStream(7, 0.25)
	b := NewFaultStream(7, 0.25)
	c := NewFaultStream(8, 0.25)
	diverged := false
	for i := 0; i < 1000; i++ {
		af, am := a.Next()
		bf, bm := b.Next()
		cf, cm := c.Next()
		if af != bf || am != bm {
			t.Fatalf("draw %d: same seed diverged: (%v, %#x) vs (%v, %#x)", i, af, am, bf, bm)
		}
		if af != cf || am != cm {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 7 and 8 produced identical 1000-draw streams")
	}
}

// TestFaultStreamRates checks the edge rates exactly and the interior rate
// statistically: zero, negative and NaN rates never fire, one always
// fires, and 1% lands within ±30% of expectation over 100k draws (binomial
// σ ≈ 31, the band is ±300). NaN matters because uint64(NaN * 2^64) is
// implementation-defined: on amd64 it made about half of all writes tear.
func TestFaultStreamRates(t *testing.T) {
	for _, rate := range []float64{0, -1, math.NaN()} {
		off := NewFaultStream(1, rate)
		for i := 0; i < 10_000; i++ {
			if fire, _ := off.Next(); fire {
				t.Fatalf("rate-%g stream fired", rate)
			}
		}
	}
	always := NewFaultStream(1, 1)
	for i := 0; i < 10_000; i++ {
		if fire, _ := always.Next(); !fire {
			t.Fatal("unit-rate stream missed")
		}
	}
	s := NewFaultStream(99, 0.01)
	fires := 0
	var maskOr, maskAnd uint32 = 0, ^uint32(0)
	for i := 0; i < 100_000; i++ {
		if fire, mask := s.Next(); fire {
			fires++
			maskOr |= mask
			maskAnd &= mask
		}
	}
	if fires < 700 || fires > 1300 {
		t.Fatalf("1%% stream fired %d/100000 times", fires)
	}
	// Masks are uniform draws: across ~1000 of them every bit position
	// should have appeared set and appeared clear.
	if maskOr != ^uint32(0) || maskAnd != 0 {
		t.Fatalf("mask stream is biased: OR %#x AND %#x", maskOr, maskAnd)
	}
}

// TestFaultStreamRateMonotone sanity-checks threshold construction: a
// higher rate never fires less often on the same seed.
func TestFaultStreamRateMonotone(t *testing.T) {
	count := func(rate float64) int {
		s := NewFaultStream(5, rate)
		n := 0
		for i := 0; i < 20_000; i++ {
			// Burn the mask draw alignment deliberately: only the fire
			// decision matters here.
			if fire, _ := s.Next(); fire {
				n++
			}
		}
		return n
	}
	if a, b := count(0.001), count(0.1); a >= b {
		t.Fatalf("rate 0.001 fired %d, rate 0.1 fired %d", a, b)
	}
}
