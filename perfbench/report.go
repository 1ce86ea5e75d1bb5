package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/experiments"
)

func (b *bench) verify() error { return b.wl.verify(b) }

func median(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// percentile is the p-th percentile of s by nearest rank.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c[max(int(math.Ceil(p/100*float64(len(c))))-1, 0)]
}

// tail returns the highest percentile with at least ten samples beyond it
// (the 11th-largest sample), but never below p90: with fewer than 100
// samples it is the p90 sample by nearest rank. It also returns the
// percentile it sits at and the sample count.
func tail(s []float64) (v, pct float64, n int) {
	n = len(s)
	if n == 0 {
		return 0, 0, 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := max(n-11, int(math.Ceil(0.9*float64(n)))-1)
	return c[i], 100 * float64(i+1) / float64(n), n
}

// latencyStats is op_ms_p50 and op_ms_tail: the geometric means over op
// kinds of each kind's median and block tail latency. Kinds differ by up to an
// order of magnitude (an aes device against a crc one, a sha grid against
// a crc Table 2 group), so pooled percentiles would sit on the gaps between
// kinds and jump with the mix; per-kind figures do not.
func (b *bench) latencyStats(t *tally) (p50, tl float64) {
	lp, lt, n := 0.0, 0.0, 0
	for k := 0; k < b.cycle(); k++ {
		v := latencies(t.lat, k)
		if len(v) == 0 {
			continue
		}
		x := blockTail(v)
		lp += math.Log(median(v))
		lt += math.Log(x)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(lp / float64(n)), math.Exp(lt / float64(n))
}

// tailBlock is the op count over which one tail is taken: large enough
// that the 11th-largest sample is p90, small enough that a burst of load
// from elsewhere on the host spoils a few blocks rather than the figure.
const tailBlock = 100

// blockTail is the median over consecutive blocks of tailBlock samples of
// each block's tail; with fewer than two blocks, the tail of all samples.
func blockTail(v []float64) float64 {
	if len(v) < 2*tailBlock {
		x, _, _ := tail(v)
		return x
	}
	var tails []float64
	for lo := 0; lo+tailBlock <= len(v); lo += tailBlock {
		x, _, _ := tail(v[lo : lo+tailBlock])
		tails = append(tails, x)
	}
	return median(tails)
}

// kindName names op kind k (see bench.cycle).
func (b *bench) kindName(k int) string {
	switch b.wl.name {
	case "harsh":
		return harshSchemes[k/len(b.images)].Name() + " on " + b.images[k%len(b.images)].name
	case "sweep":
		ii, grid := b.sweepCall(k)
		if grid {
			return "grid on " + b.images[ii].name
		}
		return "table2 on " + b.images[ii].name
	}
	return b.images[k].name
}

// latencies returns the latencies of one op kind, in op order.
func latencies(s []latSample, kind int) []float64 {
	var v []float64
	for _, x := range s {
		if x.kind == kind {
			v = append(v, x.ms)
		}
	}
	return v
}

// simOverheadPct averages the simulated overhead over the ops of the first
// overheadClaims claims, which every run completes. A failed op leaves a
// gap, but it also makes the run incorrect.
func (b *bench) simOverheadPct() float64 {
	prefix := b.overheadClaims()
	switch b.wl.name {
	case "fleet":
		prefix *= b.fleetOptions(0, 1).Devices
	case "sweep":
		// Calls alternate one grid and one Table 2 group.
		prefix = prefix / 2 * (len(gridConfigs(b.images[0], b.gridMaxRF())) +
			len(experiments.Table2Configs())*sweepSeeds)
	}
	var sum float64
	var n int
	for id := 0; id < prefix; id++ {
		if v, ok := b.overhead[id]; ok {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

func setupMedians(st []setupTimes) (total, compile, trace, batch float64) {
	var a, c, t, bt []float64
	for _, s := range st {
		a = append(a, s.total.Seconds())
		c = append(c, float64(s.compile.Nanoseconds())/1e6)
		t = append(t, float64(s.trace.Nanoseconds())/1e6)
		bt = append(bt, float64(s.batch.Nanoseconds())/1e6)
	}
	return median(a), median(c), median(t), median(bt)
}

func perSec(units int, ns int64) float64 {
	if ns == 0 {
		return 0
	}
	return float64(units) / (float64(ns) / 1e9)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEndMetrics reports the untraced run.
func (b *bench) endToEndMetrics() map[string]metric {
	t := &b.plain
	setup, _, _, _ := setupMedians(b.setups)
	p50, tl := b.latencyStats(t)
	opsPerS, nsPerInsn := t.cycleMedians()
	return map[string]metric{
		"ops_per_s":        {opsPerS, "1/s"},
		"host_ns_per_insn": {nsPerInsn, "ns"},
		"op_ms_p50":        {p50, "ms"},
		"op_ms_tail":       {tl, "ms"},
		"live_heap_p90_mb": {percentile(t.liveHeapMB, 90), "MB"},
		"sim_overhead_pct": {b.simOverheadPct(), "%"},
		"setup_s":          {setup, "s"},
	}
}

// layerMetrics reports the traced run: the probes' unit costs, the traced
// segments' counts, and the attribution of end-to-end time to layers.
func (b *bench) layerMetrics(pr *probes, host hostInfo) map[string]metric {
	t := &b.traced
	_, compile, trace, batch := setupMedians(b.setups)
	var (
		armsimNS, interNS, boxedNS, insns       float64
		clankNS, genericNS, refmonNS, accesses  float64
		hits, vetoes                            float64
		newMachine, reset, shared, batchProbe   float64
		lockNS, lockOffNS, powNS, verOn, verOff float64
	)
	for i, p := range pr.img {
		im := b.images[i]
		n := float64(im.insns)
		armsimNS += p.armsimNS * n
		interNS += p.interNS * n
		boxedNS += p.boxedNS * n
		insns += n
		a := float64(p.accesses)
		clankNS += p.clankNS * a
		genericNS += p.genericNS * a
		refmonNS += p.refmonNS * a
		lockNS += p.lockstepNS * a
		lockOffNS += p.lockstepOffNS * a
		powNS += p.poweredNS * a
		accesses += a
		hits += float64(p.filterHits)
		vetoes += float64(p.vetoes)
		newMachine += p.newMachineNS / float64(len(pr.img))
		reset += p.resetNS / float64(len(pr.img))
		shared += p.sharedBuildNS / float64(len(pr.img))
		batchProbe += p.batchTraceNS
		verOn += p.verifyOnNS
		verOff += p.verifyOffNS
	}
	if batch == 0 {
		batch = batchProbe / 1e6
	}
	ops := float64(t.units)
	perOp := func(v int) float64 { return ratio(float64(v), ops) }
	var busy, fold float64
	if len(t.runs) > 0 {
		var host, elapsed, f float64
		for _, r := range t.runs {
			host += float64(r.hostNS)
			elapsed += float64(r.elapsedNS)
			f += float64(r.wallNS-r.elapsedNS) - pr.img[r.img].sharedBuildNS
		}
		busy = host / (float64(workers()) * elapsed)
		fold = f / float64(len(t.runs)) / 1e6
	}
	traceOverhead := ratio(ratio(float64(t.cpuNS), float64(t.units)), ratio(float64(b.plain.cpuNS), float64(b.plain.units))) - 1
	return map[string]metric{
		"ccc.compile_ms":                          {compile, "ms"},
		"armsim.trace_ms":                         {trace, "ms"},
		"armsim.shared_build_ms":                  {shared / 1e6, "ms"},
		"policysim.batch_trace_ms":                {batch, "ms"},
		"armsim.ns_per_insn":                      {armsimNS / insns, "ns"},
		"intermittent.ns_per_insn":                {interNS / insns, "ns"},
		"scheme.boxed_ns_per_insn":                {boxedNS / insns, "ns"},
		"clank.ns_per_access":                     {clankNS / accesses, "ns"},
		"clank.filter_hit_ratio":                  {hits / accesses, "ratio"},
		"clank.vetoes_per_kaccess":                {1000 * vetoes / accesses, "count"},
		"scheme.generic_ns_per_access":            {genericNS / accesses, "ns"},
		"clank.commit_ns":                         {pr.commitNS, "ns"},
		"clank.boot_decode_ns":                    {pr.bootNS, "ns"},
		"intermittent.checkpoints_per_op":         {perOp(t.ckpts), "count"},
		"intermittent.restarts_per_op":            {perOp(t.restarts), "count"},
		"intermittent.commit_writes_per_op":       {perOp(t.commitWrites), "count"},
		"intermittent.torn_writes_per_op":         {perOp(t.tornWrites), "count"},
		"intermittent.recovered_per_op":           {perOp(t.recovered), "count"},
		"intermittent.reexec_ratio":               {ratio(float64(t.reexecCycles), float64(t.wallCycles)), "ratio"},
		"intermittent.new_machine_us":             {newMachine / 1e3, "us"},
		"intermittent.reset_us":                   {reset / 1e3, "us"},
		"refmon.ns_per_access":                    {refmonNS / accesses, "ns"},
		"refmon.verify_ratio":                     {ratio(verOn, verOff), "ratio"},
		"policysim.lockstep_ns_per_access_config": {lockNS / accesses, "ns"},
		"policysim.powered_ns_per_access_config":  {powNS / accesses, "ns"},
		"policysim.verify_ratio":                  {ratio(lockNS, lockOffNS), "ratio"},
		"fleet.busy_ratio":                        {busy, "ratio"},
		"fleet.fold_ms":                           {fold, "ms"},
		"runtime.allocs_per_op":                   {ratio(float64(t.mallocs), ops), "count"},
		"runtime.gc_cpu_frac":                     {ratio(t.gcCPU, t.totalCPU), "ratio"},
		"trace_overhead_frac":                     {traceOverhead, "ratio"},
		"unattributed_frac":                       {b.unattributed(pr), "ratio"},
		"host.calibration_ns":                     {host.CalibrationNS, "ns"},
	}
}

// unattributed is the share of the traced segments' end-to-end time that
// the layer unit costs times their counts do not explain (see the
// attribution entries in layers.json).
func (b *bench) unattributed(pr *probes) float64 {
	t := &b.traced
	var e2e, model float64
	switch b.wl.name {
	case "fleet":
		w := float64(workers())
		for _, r := range t.runs {
			e2e += w * float64(r.wallNS)
			model += w*float64(r.wallNS-r.elapsedNS) + w*float64(r.elapsedNS) - float64(r.hostNS)
		}
		for _, op := range t.ops {
			p := pr.img[op.img]
			model += float64(op.insns)*p.interNS + float64(op.ckpts)*pr.commitNS +
				float64(op.reboots)*pr.bootNS + p.resetNS
		}
	case "harsh":
		for _, op := range t.ops {
			p := pr.img[op.img]
			perInsn := p.interNS
			if op.scheme != 0 {
				perInsn = p.boxedNS + p.accPerInsn*(p.genericNS-p.clankNS)
			}
			e2e += float64(op.hostNS)
			model += p.newMachineNS + float64(op.insns)*(perInsn+p.accPerInsn*p.refmonNS) +
				float64(op.ckpts)*pr.commitNS + float64(op.reboots)*pr.bootNS
		}
	case "sweep":
		for _, op := range t.ops {
			p := pr.img[op.img]
			unit := p.poweredNS
			if op.grid {
				unit = p.lockstepNS
			}
			e2e += float64(op.hostNS)
			model += float64(op.jobs) * float64(b.images[op.img].batch.Len()) * unit
		}
	}
	if e2e == 0 {
		return 0
	}
	return (e2e - model) / e2e
}

// sortedKeys lists a metric map's names for stable report output.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printReport prints the human-readable summary above the result line,
// naming ops_per_s by its workload-specific alias.
func (b *bench) printReport(res result) {
	w := b.out
	alias := map[string]string{"fleet": "devices_per_s", "harsh": "runs_per_s", "sweep": "replays_per_s"}[b.wl.name]
	fmt.Fprintf(w, "ops: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, e := range b.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		name := k
		if k == "ops_per_s" {
			name = alias + " (ops_per_s)"
		}
		fmt.Fprintf(w, "%-44s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if !b.cfg.trace {
		fmt.Fprintln(w, "op_ms_p50 and op_ms_tail are geometric means over op kinds of:")
		for k := 0; k < b.cycle(); k++ {
			v := latencies(b.plain.lat, k)
			_, pct, _ := tail(v[:min(len(v), tailBlock)])
			fmt.Fprintf(w, "  %-20s p50 %10.3f ms, p%.0f %10.3f ms (median over blocks of %d), %d ops\n",
				b.kindName(k), median(v), pct, blockTail(v), tailBlock, len(v))
		}
	}
}
