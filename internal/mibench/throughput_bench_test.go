package mibench

import (
	"sync"
	"testing"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/intermittent"
	"repro/internal/power"
)

// End-to-end simulator throughput on MiBench-scale programs: compile once,
// then run the image to completion per iteration on the fused engine and
// with fusion disabled (runs of length one). The ns/insn and MIPS metrics are the numbers
// BENCH_armsim.json records; the fused/predecode ratio is the fusion
// speedup.

var throughputImages struct {
	sync.Mutex
	m map[string]*ccc.Image
}

func throughputImage(b *testing.B, name string) *ccc.Image {
	b.Helper()
	throughputImages.Lock()
	defer throughputImages.Unlock()
	if img, ok := throughputImages.m[name]; ok {
		return img
	}
	bench, ok := ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %q", name)
	}
	img, err := ccc.Compile(bench.Source)
	if err != nil {
		b.Fatalf("compile %s: %v", name, err)
	}
	if throughputImages.m == nil {
		throughputImages.m = map[string]*ccc.Image{}
	}
	throughputImages.m[name] = img
	return img
}

func benchThroughput(b *testing.B, name, mode string) {
	img := throughputImage(b, name)
	b.ReportAllocs()
	b.ResetTimer()
	var insns uint64
	for i := 0; i < b.N; i++ {
		// Machine construction and image load are a constant per-run cost
		// (zeroing 256 KB of memory plus the 1.5 MB decode table); keep
		// them out of the throughput measurement.
		b.StopTimer()
		m := armsim.NewMachine()
		if mode == "predecode" {
			m.CPU.DisableFusion()
		}
		if err := m.Boot(img.Bytes); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Run(maxBenchCycles); err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		insns += m.CPU.Insns
	}
	elapsed := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(elapsed/float64(insns), "ns/insn")
	b.ReportMetric(float64(insns)/elapsed*1e3, "MIPS")
}

// benchIntermittentThroughput runs the image through the full intermittent
// machine — every data access classified by the Clank detector on the
// monitored bus, checkpoints drained, harvested power cycling the CPU — and
// reports the same ns/insn and MIPS metrics as the continuous modes. This is
// the hot path the access-filter front end targets: with the CPU core
// predecoded, the run spends its time in clank.Read/Write and the busAdapter
// dispatch.
func benchIntermittentThroughput(b *testing.B, name string) {
	img := throughputImage(b, name)
	cfg := clank.Config{
		ReadFirst: 16, WriteFirst: 8, WriteBack: 4,
		AddrPrefix: 4, PrefixLowBits: 6,
		Opts: clank.OptAll,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var insns uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := intermittent.NewMachine(img, intermittent.Options{
			Config:          cfg,
			Supply:          power.NewSupply(power.Exponential{Mean: 200_000, Min: 2_000}, 7),
			ProgressDefault: 10_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := m.Run()
		if err != nil {
			b.Fatalf("%s: %v", name, err)
		}
		if !st.Completed {
			b.Fatalf("%s: run did not complete", name)
		}
		insns += m.Insns()
	}
	elapsed := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(elapsed/float64(insns), "ns/insn")
	b.ReportMetric(float64(insns)/elapsed*1e3, "MIPS")
}

// BenchmarkMiBenchThroughput covers four representative workloads: ALU-heavy
// (bitcount), table-lookup streaming (crc), substitution/permutation over
// state arrays (aes), and pointer/array graph work (dijkstra); the
// intermittent mode runs the same images Clank-monitored under harvested
// power.
func BenchmarkMiBenchThroughput(b *testing.B) {
	for _, name := range []string{"bitcount", "crc", "aes", "dijkstra"} {
		for _, mode := range []string{"fused", "predecode"} {
			mode := mode
			b.Run(name+"/"+mode, func(b *testing.B) {
				benchThroughput(b, name, mode)
			})
		}
		b.Run(name+"/intermittent", func(b *testing.B) {
			benchIntermittentThroughput(b, name)
		})
	}
}
