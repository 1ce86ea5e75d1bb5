package power

// FaultStream is a deterministic stream of torn non-volatile write faults:
// each Next call is one Bernoulli trial at the configured rate, and a hit
// additionally draws a uniform 32-bit tear mask — the subset of the failing
// write's bits that land before power dies. It is the statistical
// counterpart of the harvesting supply: where Supply decides when the
// device browns out between instructions, a FaultStream decides whether a
// commit-protocol NV write is the one the outage cuts mid-word.
//
// The stream is a splitmix64 generator, so like the supply it is a pure
// function of its seed: fleet runs derive one seed per device and get
// byte-identical telemetry at any worker count. The zero rate produces a
// stream that never fires (and burns no state), so a nil-vs-disabled
// injector distinction never leaks into results.
type FaultStream struct {
	state     uint64
	threshold uint64 // fire when a 64-bit draw falls below this
}

// NewFaultStream builds a stream firing with the given per-write
// probability. Rates at or above 1 fire on every draw; rates at or below 0,
// and NaN, never fire.
func NewFaultStream(seed uint64, rate float64) *FaultStream {
	s := &FaultStream{state: seed}
	switch {
	case !(rate > 0):
		s.threshold = 0
	case rate >= 1:
		s.threshold = ^uint64(0)
	default:
		// rate × 2^64, exact enough: the product is below 2^64 by the
		// guards above, and float64 rounding moves the rate by at most
		// one part in 2^52.
		s.threshold = uint64(rate * 0x1p64)
	}
	return s
}

// next64 advances the splitmix64 state and returns the mixed output.
func (s *FaultStream) next64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// Next runs one trial. On a hit it returns (true, mask): the write is cut
// and exactly the masked bits land — mask 0 (1 in 2^32 draws) is a cut
// before any bit changed, which still costs the outage but tears nothing.
// On a miss it returns (false, 0) and the write proceeds untouched.
func (s *FaultStream) Next() (bool, uint32) {
	if s.threshold == 0 {
		return false, 0
	}
	if s.next64() >= s.threshold {
		return false, 0
	}
	return true, uint32(s.next64())
}
