package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/intermittent"
	"repro/internal/policysim"
	"repro/internal/power"
	"repro/internal/refmon"
	"repro/internal/scheme"
)

// imageProbe holds one image's layer unit costs, each timed around calls
// into that layer's public API.
type imageProbe struct {
	armsimNS, interNS, boxedNS   float64 // ns per instruction
	clankNS, genericNS, refmonNS float64 // ns per access
	accPerInsn                   float64
	newMachineNS, resetNS        float64
	sharedBuildNS, batchTraceNS  float64
	lockstepNS, poweredNS        float64 // ns per (access x config), one worker
	lockstepOffNS                float64
	verifyOnNS, verifyOffNS      float64 // harsh-style run with and without refmon

	accesses, filterHits, vetoes, dirtyAtVeto int
}

// probes is the traced run's layer measurements.
type probes struct {
	img       []imageProbe
	meanDirty float64
	commitNS  float64
	bootNS    float64
}

// probe measures every layer's unit cost on the workload's images.
func (b *bench) probe(tr *tracer) (*probes, error) {
	// Core and replay probes take milliseconds, so each is the median of
	// many repetitions; the segments' garbage is collected first so no
	// background marking lands inside a probe.
	reps := 15
	if b.cfg.tiny {
		reps = 1
	}
	runtime.GC()
	pr := &probes{img: make([]imageProbe, len(b.images))}
	var dirty, vetoes int
	for i, im := range b.images {
		p := &pr.img[i]
		if err := b.probeImage(i, p, reps, tr); err != nil {
			return nil, fmt.Errorf("probe %s: %w", im.name, err)
		}
		dirty += p.dirtyAtVeto
		vetoes += p.vetoes
	}
	if vetoes > 0 {
		pr.meanDirty = float64(dirty) / float64(vetoes)
	}
	pr.commitNS, pr.bootNS = commitBootCost(int(math.Round(pr.meanDirty)), tr)
	return pr, nil
}

// medianTime runs fn reps times and returns the median of the durations
// fn reports, so each probe times only the call it measures.
func medianTime(reps int, fn func() (time.Duration, error)) (float64, error) {
	var s []float64
	for r := 0; r < reps; r++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		s = append(s, float64(d.Nanoseconds()))
	}
	return median(s), nil
}

// timed runs one call inside a span and returns the process CPU time it
// took (nothing else runs while the probes do).
func timed(tr *tracer, name string, call func() error) (time.Duration, error) {
	sp := tr.begin(name, -1, -1)
	t0 := processCPU()
	err := call()
	d := processCPU() - t0
	tr.end(sp)
	return d, err
}

func (b *bench) probeImage(ii int, p *imageProbe, reps int, tr *tracer) error {
	im := b.images[ii]
	cfg := detectorConfig()
	cfg.TextStart, cfg.TextEnd = im.img.TextStart, im.img.TextEnd

	// The frozen decode+fusion caches every core probe runs through, so the
	// per-instruction costs are warm-cache figures like a fleet device's,
	// not the first run's decode and fusion.
	opts := intermittent.Options{Config: detectorConfig(), Supply: power.Always{}}
	var prog, plain *armsim.SharedProgram
	var err error
	if p.sharedBuildNS, err = medianTime(reps, func() (time.Duration, error) {
		return timed(tr, "intermittent.BuildSharedProgram", func() (err error) {
			prog, err = intermittent.BuildSharedProgram(im.img, opts)
			return err
		})
	}); err != nil {
		return err
	}
	if plain, err = armsim.NewSharedProgram(im.img.Bytes, im.img.InitialSP, im.img.Entry, im.img.TextEnd, 0, 0); err != nil {
		return err
	}

	// Continuous core.
	ns, err := medianTime(reps, func() (time.Duration, error) {
		mem := armsim.NewMemory()
		if err := mem.LoadImage(0, im.img.Bytes); err != nil {
			return 0, err
		}
		m := &armsim.Machine{CPU: armsim.NewCPU(mem), Mem: mem}
		m.CPU.AttachShared(plain, mem)
		m.CPU.ResetInto(im.img.InitialSP, im.img.Entry)
		return timed(tr, "armsim.Machine.Run", func() error {
			_, err := m.Run(maxCycles)
			return err
		})
	})
	if err != nil {
		return err
	}
	p.armsimNS = ns / float64(im.insns)
	p.accPerInsn = float64(im.accesses) / float64(im.insns)

	// Monitored machine on always-on power: devirtualized and boxed.
	runAlways := func(fac scheme.Factory, name string) (float64, error) {
		var insns uint64
		o := opts
		o.Scheme = fac
		ns, err := medianTime(reps, func() (time.Duration, error) {
			m, err := intermittent.NewMachineShared(im.img, o, prog)
			if err != nil {
				return 0, err
			}
			d, err := timed(tr, name, func() error {
				_, err := m.Run()
				return err
			})
			insns = m.Insns()
			return d, err
		})
		return ns / float64(insns), err
	}
	if p.interNS, err = runAlways(scheme.ClankFactory{}, "intermittent.Machine.Run"); err != nil {
		return err
	}
	if p.boxedNS, err = runAlways(scheme.Boxed(scheme.ClankFactory{}), "intermittent.Machine.Run(boxed)"); err != nil {
		return err
	}

	// Detector replay: one counting pass, then timed passes.
	var vetoAt []int
	k := clank.New(cfg)
	for i := range im.trace {
		a := &im.trace[i]
		if a.Addr >= armsim.MemSize {
			continue
		}
		w := a.Addr >> 2
		p.accesses++
		if a.Write && k.FilterHitWrite(w) || !a.Write && k.FilterHitRead(w) {
			p.filterHits++
		}
		if out := feed(k, a); out.NeedCheckpoint {
			p.vetoes++
			p.dirtyAtVeto += k.WBDirty()
			vetoAt = append(vetoAt, i)
			k.Reset()
			feed(k, a)
		}
	}
	ns, _ = medianTime(reps, func() (time.Duration, error) {
		k := clank.New(cfg)
		return timed(tr, "clank.Read/Write", func() error {
			replayDetector(k, im.trace)
			return nil
		})
	})
	p.clankNS = ns / float64(p.accesses)
	var generic float64
	for _, fac := range []scheme.Factory{scheme.AlpacaFactory{}, scheme.DiCAFactory{}} {
		ns, _ := medianTime(reps, func() (time.Duration, error) {
			s := fac.New(cfg)
			return timed(tr, "scheme.Read/Write", func() error {
				replayScheme(s, im.trace)
				return nil
			})
		})
		generic += ns / 2
	}
	p.genericNS = generic / float64(p.accesses)
	ns, _ = medianTime(reps, func() (time.Duration, error) {
		mon := refmon.New()
		return timed(tr, "refmon.ReadNV/WriteNV", func() error {
			replayRefmon(mon, im.trace, vetoAt)
			return nil
		})
	})
	p.refmonNS = ns / float64(p.accesses)

	// Machine construction and the fleet's per-device reset.
	if p.newMachineNS, err = medianTime(reps, func() (time.Duration, error) {
		return timed(tr, "intermittent.NewMachine", func() error {
			_, err := intermittent.NewMachine(im.img, opts)
			return err
		})
	}); err != nil {
		return err
	}
	m, err := intermittent.NewMachineShared(im.img, opts, prog)
	if err != nil {
		return err
	}
	p.resetNS, _ = medianTime(2*reps, func() (time.Duration, error) {
		return timed(tr, "intermittent.Machine.ResetDevice", func() error {
			m.ResetDevice(power.Always{})
			return nil
		})
	})

	// The reference monitor's share of a harsh-style run.
	for r := 0; r < min(reps, 3); r++ {
		for _, verify := range []bool{true, false} {
			ns, err := b.probeHarshRun(ii, verify, tr)
			if err != nil {
				return err
			}
			if verify {
				p.verifyOnNS += float64(ns)
			} else {
				p.verifyOffNS += float64(ns)
			}
		}
	}

	// Policy simulator cores on one worker.
	bt := im.batch
	if bt == nil {
		p.batchTraceNS, _ = medianTime(reps, func() (time.Duration, error) {
			return timed(tr, "policysim.NewBatchTrace", func() error {
				bt = policysim.NewBatchTrace(im.trace, im.cycles, im.img.TextStart, im.img.TextEnd)
				return nil
			})
		})
	}
	pim := *im
	pim.batch = bt
	if pim.exempt == nil {
		pim.exempt = ccc.ProgramIdempotentPCs(im.trace)
	}
	sweepNS := func(grid, verify bool, name string) (float64, error) {
		// Call ids 0 and 1 are the sweep workload's first grid and Table 2
		// calls, so every workload probes the same job recipe. One
		// repetition: a grid with Verify on is the costliest probe.
		call := 1
		if grid {
			call = 0
		}
		var n int
		ns, err := medianTime(1, func() (time.Duration, error) {
			jobs := b.sweepJobs(&pim, call, grid, verify)
			n = len(jobs)
			return timed(tr, name, func() error {
				_, err := (&policysim.Sweep{Trace: bt, Jobs: jobs, Workers: 1}).Run()
				return err
			})
		})
		return ns / float64(n*bt.Len()), err
	}
	if p.lockstepNS, err = sweepNS(true, true, "policysim.Sweep.Run(grid)"); err != nil {
		return err
	}
	if p.lockstepOffNS, err = sweepNS(true, false, "policysim.Sweep.Run(grid,verify off)"); err != nil {
		return err
	}
	if p.poweredNS, err = sweepNS(false, true, "policysim.Sweep.Run(table2)"); err != nil {
		return err
	}
	return nil
}

// probeHarshRun times one harsh-style run of image ii (clank scheme, op 0's
// supply and fault seeds) and returns its host ns. It checks no outputs:
// the fleet's aes image does not reproduce its continuous outputs under
// the Clank scheme at this mean on-time, and the probe only prices refmon.
func (b *bench) probeHarshRun(ii int, verify bool, tr *tracer) (int64, error) {
	rec, _, err := b.harshOp(0, ii, 0, verify, tr)
	return rec.hostNS, err
}

// feed presents one recorded access to the detector.
func feed(k *clank.Clank, a *armsim.Access) clank.Outcome {
	if a.Write {
		return k.Write(a.Addr>>2, a.Value, a.Prev, a.PC)
	}
	return k.Read(a.Addr>>2, a.Value, a.PC)
}

func replayDetector(k *clank.Clank, trace []armsim.Access) {
	for i := range trace {
		a := &trace[i]
		if a.Addr >= armsim.MemSize {
			continue
		}
		if feed(k, a).NeedCheckpoint {
			k.Reset()
			feed(k, a)
		}
	}
}

func replayScheme(s scheme.Scheme, trace []armsim.Access) {
	for i := range trace {
		a := &trace[i]
		if a.Addr >= armsim.MemSize {
			continue
		}
		w := a.Addr >> 2
		var out clank.Outcome
		if a.Write {
			out = s.Write(w, a.Value, a.Prev, a.PC)
		} else {
			out = s.Read(w, a.Value, a.PC)
		}
		if out.NeedCheckpoint {
			s.Committed(a.Cycle)
			if a.Write {
				s.Write(w, a.Value, a.Prev, a.PC)
			} else {
				s.Read(w, a.Value, a.PC)
			}
		}
	}
}

// replayRefmon shadows the trace with the reference monitor, starting a new
// section wherever the detector vetoed (its checkpoints) or the monitor
// itself flags a violation.
func replayRefmon(mon *refmon.Monitor, trace []armsim.Access, vetoAt []int) {
	next := 0
	for i := range trace {
		a := &trace[i]
		if a.Addr >= armsim.MemSize {
			continue
		}
		if next < len(vetoAt) && vetoAt[next] == i {
			mon.Reset()
			next++
		}
		w := a.Addr >> 2
		if !a.Write {
			mon.ReadNV(w, a.Value)
		} else if mon.WriteNV(w, a.Value, a.PC) != nil {
			mon.Reset()
			mon.WriteNV(w, a.Value, a.PC)
		}
	}
}

// commitSink keeps the commit and decode loops' results live.
var commitSink uint32

// commitBootCost times the commit program's host-side work at the given
// dirty count and the boot-time record decode.
func commitBootCost(dirty int, tr *tracer) (commitNS, bootNS float64) {
	const iters = 20000
	costs := clank.DefaultCosts()
	var steps []clank.CommitStep
	var slotA, slotB [clank.SlotRecWords]uint32
	jn := make([]uint32, clank.JournalWords(dirty))
	for i := 0; i < dirty; i++ {
		jn[clank.JournalEntryWord(i, 0)] = uint32(i) << 4
		jn[clank.JournalEntryWord(i, 1)] = uint32(i) * 7
	}
	rec := clank.SlotRecord{PSR: 0x61000000, Cycle: 123456, Outputs: 3, Seq: 7}
	for i := range rec.Regs {
		rec.Regs[i] = uint32(i) * 0x01010101
	}
	sp := tr.begin("clank.commit", -1, -1)
	t0 := processCPU()
	for i := 0; i < iters; i++ {
		steps = clank.AppendCommitSteps(steps[:0], costs, dirty)
		rec.Seq = uint32(i)
		clank.EncodeSlot(slotA[:], rec)
		commitSink += clank.JournalCRC(jn, dirty) + uint32(len(steps))
	}
	commitNS = float64((processCPU() - t0).Nanoseconds()) / iters
	tr.end(sp)

	clank.EncodeSlot(slotB[:], rec)
	jn[clank.JnlLenWord] = uint32(dirty)
	jn[clank.JnlSeqWord] = rec.Seq
	jn[clank.JnlCRCWord] = clank.JournalCRC(jn, dirty)
	sp = tr.begin("clank.boot_decode", -1, -1)
	t0 = processCPU()
	for i := 0; i < iters; i++ {
		ra, _ := clank.DecodeSlot(slotA[:])
		rb, _ := clank.DecodeSlot(slotB[:])
		n, seq, _ := clank.DecodeJournal(jn)
		commitSink += ra.Seq + rb.Seq + seq + uint32(n)
	}
	bootNS = float64((processCPU() - t0).Nanoseconds()) / iters
	tr.end(sp)
	return commitNS, bootNS
}
