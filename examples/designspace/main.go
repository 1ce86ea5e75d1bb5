// Designspace: size Clank's buffers for a specific application. A hardware
// designer picks the cheapest configuration meeting an overhead target;
// this example sweeps buffer shapes for a matrix workload, prints the
// tradeoff, and highlights the knee — the per-product version of the
// paper's Figure 5 methodology.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/policysim"
)

const workload = `
// A small fixed-point matrix pipeline: multiply, transpose, accumulate —
// dense with the in-place read-modify-writes that stress idempotency
// tracking.
int a[16][16];
int b[16][16];
int c[16][16];

int main(void) {
	int i;
	int j;
	int k;
	uint seed = 7;
	for (i = 0; i < 16; i++) {
		for (j = 0; j < 16; j++) {
			seed = seed * 1664525 + 1013904223;
			a[i][j] = (int)((seed >> 24) & 63) - 32;
			b[i][j] = (int)((seed >> 16) & 63) - 32;
			c[i][j] = 0;
		}
	}
	for (i = 0; i < 16; i++)
		for (j = 0; j < 16; j++)
			for (k = 0; k < 16; k++)
				c[i][j] += a[i][k] * b[k][j];
	// In-place transpose of c.
	for (i = 0; i < 16; i++) {
		for (j = i + 1; j < 16; j++) {
			int t = c[i][j];
			c[i][j] = c[j][i];
			c[j][i] = t;
		}
	}
	{
		uint h = 2166136261;
		for (i = 0; i < 16; i++)
			for (j = 0; j < 16; j++)
				h = (h ^ (uint)c[i][j]) * 16777619;
		__output(h);
	}
	return 0;
}
`

func main() {
	img, err := ccc.Compile(workload)
	if err != nil {
		log.Fatal(err)
	}
	trace, cycles, err := armsim.CollectTrace(img.Bytes, 200_000_000)
	if err != nil {
		log.Fatal(err)
	}
	exempt := ccc.ProgramIdempotentPCs(trace)
	fmt.Printf("workload: %d cycles, %d accesses, %d exempt PCs\n\n", cycles, len(trace), len(exempt))

	// Capture the trace in columnar form once and replay the whole grid
	// against it in one batch.
	var jobs []policysim.Job
	for _, rf := range []int{1, 2, 4, 8, 16} {
		for _, wb := range []int{0, 1, 2, 4} {
			for _, ap := range []int{0, 4} {
				cfg := clank.Config{
					ReadFirst: rf, WriteFirst: rf / 2, WriteBack: wb,
					AddrPrefix: ap, Opts: clank.OptAll,
					TextStart: img.TextStart, TextEnd: img.TextEnd,
					ExemptPCs: exempt,
				}
				if ap > 0 {
					cfg.PrefixLowBits = 6
				}
				jobs = append(jobs, policysim.Job{Config: cfg, Opts: policysim.Options{Verify: true}})
			}
		}
	}
	tr := policysim.NewBatchTrace(trace, cycles, img.TextStart, img.TextEnd)
	results, err := policysim.SimulateBatch(tr, jobs)
	if err != nil {
		log.Fatal(err)
	}

	type pt struct {
		cfg  clank.Config
		bits int
		ovr  float64
	}
	pts := make([]pt, len(jobs))
	for i, j := range jobs {
		pts[i] = pt{j.Config, j.Config.BufferBits(), results[i].CheckpointOverhead()}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].bits < pts[j].bits })

	const target = 0.10 // ship at <=10% checkpoint overhead
	fmt.Printf("%-14s %6s %10s\n", "R,W,WB,AP", "bits", "overhead")
	best := 2.0
	var pick *pt
	for i := range pts {
		p := &pts[i]
		marker := ""
		if p.ovr < best {
			best = p.ovr
			marker = " <- frontier"
			if p.ovr <= target && pick == nil {
				pick = p
				marker = " <- cheapest config meeting the 10% target"
			}
		}
		fmt.Printf("%-14s %6d %9.2f%%%s\n", p.cfg, p.bits, p.ovr*100, marker)
	}
	if pick != nil {
		fmt.Printf("\nrecommendation: %s (%d buffer bits, %.2f%% checkpoint overhead)\n",
			pick.cfg, pick.bits, pick.ovr*100)
	} else {
		fmt.Println("\nno swept configuration meets the target; extend the sweep")
	}
}
