package main

// The calibration kernel prices the host. It is a small bytecode
// interpreter running a fixed loop of 61 ops over a 256 KB table: switch
// dispatch the branch predictor learns, table loads and stores, and enough
// independent work to fill the core, the kind of work the simulator's
// fused core does, in code that no change to the simulator touches. Every
// timed unit (a harsh run, a fleet.Run or Sweep.Run call, a set-up) is
// followed by one kernel sample on the same thread, and its times are
// scaled by calibRefNS over that sample. On a shared host, other tenants
// slow a run down by up to 2x for seconds to minutes at a time; on a
// 2-vCPU Xeon VM the kernel slows by the same factor as a harsh run (log-log
// slope 1.00 over 3,500 paired samples, where a random-branch interpreter
// gave 1.9 and an integer-only loop 1.3), so the scaled times hold still
// while a change to the simulator moves them in full.

// calibRefNS is the kernel's ns per step the times are scaled to: about
// its median on that 2-vCPU Xeon VM.
const calibRefNS = 3.0

const (
	calibSteps   = 400_000 // steps per sample: about a millisecond
	calibBodyLen = 61      // ops in the loop body
	calibProgLen = 4096
	calibMemLen  = 1 << 16
)

var calibProg, calibMem = calibInputs()

// calibInputs builds the kernel's program (the loop body repeated) and
// table from a fixed seed.
func calibInputs() ([]uint8, []uint32) {
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var body [calibBodyLen]uint8
	for i := range body {
		body[i] = uint8(next() % 16)
		if body[i] == 6 || body[i] == 10 { // no branches
			body[i] = 5
		}
	}
	prog := make([]uint8, calibProgLen)
	for i := range prog {
		prog[i] = body[i%calibBodyLen]
	}
	mem := make([]uint32, calibMemLen)
	for i := range mem {
		mem[i] = uint32(next())
	}
	return prog, mem
}

// calibSink keeps the kernel's result live.
var calibSink uint32

// calibrate runs the kernel once and returns its ns per step in the
// calling thread's CPU time (the caller has locked its thread). Each
// sample starts from the same table, so every sample does the same work.
func calibrate() float64 {
	mem := make([]uint32, calibMemLen)
	copy(mem, calibMem)
	var r [8]uint32
	r[0] = 1
	pc := 0
	t0 := threadCPU()
	for s := 0; s < calibSteps; s++ {
		op := calibProg[pc]
		a, b := &r[op&7], r[(op>>1)&7]
		switch op {
		case 0:
			*a += b
		case 1:
			*a -= b ^ 3
		case 2:
			*a = mem[b%calibMemLen]
		case 3:
			mem[*a%calibMemLen] = b
		case 4:
			*a = *a<<3 | *a>>29
		case 5:
			*a ^= b
		case 7:
			*a = b * 2654435761
		case 8:
			*a += mem[(*a^b)%calibMemLen]
		case 9:
			*a |= 1
		case 11:
			*a = b + 7
		case 12:
			*a &= b | 0xF0F0
		case 13:
			*a >>= 1
		case 14:
			mem[(b+uint32(pc))%calibMemLen] ^= *a
		default:
			*a = ^b
		}
		pc = (pc + 1) % calibProgLen
	}
	d := threadCPU() - t0
	calibSink += r[0] + r[3]
	return float64(d.Nanoseconds()) / calibSteps
}

// calibScale samples the kernel and returns the factor the unit timed just
// before it is scaled by.
func (b *bench) calibScale() float64 {
	k := calibrate()
	b.mu.Lock()
	b.calib = append(b.calib, k)
	b.mu.Unlock()
	return calibRefNS / k
}
