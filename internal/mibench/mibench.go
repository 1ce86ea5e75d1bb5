// Package mibench ports the MiBench2 IoT benchmark suite (paper Table 1)
// to the ccc mini-C language, plus DINO's DS benchmark for the
// mixed-volatility comparison (paper Table 4). Every program is
// deterministic, self-contained (inputs generated by seeded LCGs or
// constant tables), and reports result checksums through the output port so
// intermittent executions can be verified end-to-end against continuous
// runs.
//
// Scaling note: the paper's originals run 2-64 seconds on real inputs (a
// 3 MB sha input, large JPEGs). These ports use proportionally smaller
// inputs so that a ~10^6-configuration design-space sweep stays tractable,
// preserving each benchmark's algorithmic memory-access pattern (streaming,
// table lookups, pointer chasing, in-place transforms). Floating-point
// benchmarks (basicmath, fft, susan) are fixed-point, the standard practice
// on FPU-less Cortex-M0+ parts.
package mibench

import (
	"fmt"
	"sync"

	"repro/internal/armsim"
	"repro/internal/ccc"
)

// Benchmark is one suite program.
type Benchmark struct {
	Name        string
	Description string
	Source      string
}

// All returns the 23 MiBench2 ports in the paper's Table 1 order.
func All() []Benchmark {
	return []Benchmark{
		{"adpcm_decode", "IMA ADPCM audio decoder", srcADPCMDecode},
		{"adpcm_encode", "IMA ADPCM audio encoder", srcADPCMEncode},
		{"aes", "AES-128 ECB encryption", srcAES},
		{"basicmath", "integer square roots, GCDs, angle conversion", srcBasicmath},
		{"bitcount", "five bit-counting algorithms", srcBitcount},
		{"blowfish", "Blowfish Feistel cipher", srcBlowfish},
		{"crc", "table-driven CRC-32", srcCRC},
		{"dijkstra", "all-sources shortest paths on a dense graph", srcDijkstra},
		{"fft", "fixed-point radix-2 FFT and inverse", srcFFT},
		{"limits", "integer type limit checks", srcLimits},
		{"lzfx", "LZF-style compression and decompression", srcLZFX},
		{"overflow", "integer overflow behavior checks", srcOverflow},
		{"patricia", "PATRICIA trie insert and lookup", srcPatricia},
		{"picojpeg", "JPEG-style block codec (DCT, quantize, RLE)", srcPicojpeg},
		{"qsort", "quicksort with insertion-sort base case", srcQsort},
		{"randmath", "random arithmetic with division", srcRandmath},
		{"rc4", "RC4 stream cipher", srcRC4},
		{"regress", "fixed-point linear regression", srcRegress},
		{"rsa", "modular exponentiation (RSA core)", srcRSA},
		{"sha", "SHA-1 message digest", srcSHA},
		{"stringsearch", "Boyer-Moore-Horspool search", srcStringsearch},
		{"susan", "SUSAN-style image smoothing and corners", srcSusan},
		{"vcflags", "comparison and carry-flag behavior checks", srcVCFlags},
	}
}

// DS returns DINO's data-summarizer benchmark (paper section 7.6).
func DS() Benchmark {
	return Benchmark{"ds", "DINO's DS: sensor-sample data summarizer", srcDS}
}

// ByName finds a benchmark in All() or DS().
func ByName(name string) (Benchmark, bool) {
	for _, b := range All() {
		if b.Name == name {
			return b, true
		}
	}
	if name == "ds" {
		return DS(), true
	}
	return Benchmark{}, false
}

// Compiled bundles an image with its continuous-run trace and totals.
type Compiled struct {
	Bench   Benchmark
	Image   *ccc.Image
	Trace   []armsim.Access
	Cycles  uint64
	Outputs []uint32
	// ExemptPCs is the profiler's Program Idempotent set (section 4.3).
	ExemptPCs map[uint32]bool
}

// maxBenchCycles bounds any single continuous benchmark run.
const maxBenchCycles = 500_000_000

var (
	buildMu    sync.Mutex
	buildCache = map[string]*Compiled{}
)

// Build compiles the benchmark, collects its continuous trace, and profiles
// Program Idempotent accesses. Results are cached process-wide: traces are
// deterministic.
func Build(b Benchmark) (*Compiled, error) {
	buildMu.Lock()
	if c, ok := buildCache[b.Name]; ok {
		buildMu.Unlock()
		return c, nil
	}
	buildMu.Unlock()

	img, err := ccc.Compile(b.Source)
	if err != nil {
		return nil, fmt.Errorf("mibench %s: %w", b.Name, err)
	}
	trace, cycles, err := armsim.CollectTrace(img.Bytes, maxBenchCycles)
	if err != nil {
		return nil, fmt.Errorf("mibench %s: %w", b.Name, err)
	}
	// The recorder logs every output-port store as a Write above main
	// memory, in program order: those are the continuous outputs.
	var outputs []uint32
	for _, a := range trace {
		if a.Write && a.Addr >= armsim.MemSize {
			outputs = append(outputs, a.Value)
		}
	}
	c := &Compiled{
		Bench:     b,
		Image:     img,
		Trace:     trace,
		Cycles:    cycles,
		Outputs:   outputs,
		ExemptPCs: ccc.ProgramIdempotentPCs(trace),
	}
	buildMu.Lock()
	buildCache[b.Name] = c
	buildMu.Unlock()
	return c, nil
}
