package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/intermittent"
	"repro/internal/mibench"
	"repro/internal/policysim"
	"repro/internal/power"
	"repro/internal/scheme"
)

// Workload settings. Every op's inputs derive from (--seed, op id) alone.
const (
	maxCycles = 2_000_000_000
	runSlices = 20 // measured slices per run, each after a set-up; setup_s is their median

	fleetChunk     = 128 // devices per fleet.Run call
	fleetShard     = 16  // devices per fleet shard: 8 shards over 2 workers
	fleetMeanOn    = 100_000
	fleetMinOn     = 500
	harshMeanOn    = 5_000
	harshMinOn     = 500
	harshFaultRate = 1e-3
	faultTag       = 0x746F726E // decorrelates fault seeds from supply seeds
	sweepMeanOn    = power.DefaultMeanOn
	sweepSeeds     = 3 // supply seeds per Table 2 config, as the experiments use
	sweepShard     = 8 // jobs per sweep shard, so both workers share every job group

	// Every run completes this many claims (fleet chunks, harsh runs,
	// sweep calls) whatever the deadline, and sim_overhead_pct averages
	// over their ops, so the figure is a pure function of the seed.
	fleetOverheadChunks = 32
	harshOverheadRuns   = 90
	sweepOverheadCalls  = 6
)

// workload is one fixed input set with the hooks that run it. Why each
// was chosen is recorded in BENCHMARK.json.
type workload struct {
	name   string
	images []string
	// sweepInputs: the set-up also profiles Program Idempotent PCs and
	// builds the columnar batch trace.
	sweepInputs bool
	segment     func(b *bench, deadline time.Time, tr *tracer, t *tally)
	verify      func(b *bench) error
}

var workloads = map[string]*workload{
	"fleet": {
		name:    "fleet",
		images:  []string{"crc", "aes"},
		segment: fleetSegment,
		verify:  fleetVerify,
	},
	"harsh": {
		name:    "harsh",
		images:  []string{"fft", "sha", "crc"},
		segment: harshSegment,
		verify:  func(*bench) error { return nil },
	},
	"sweep": {
		name:        "sweep",
		images:      []string{"crc", "sha", "dijkstra"},
		sweepInputs: true,
		segment:     sweepSegment,
		verify:      sweepVerify,
	},
}

func workloadNames() string { return strings.Join(allWorkloads, ", ") }

// image is one compiled benchmark with everything the set-up derives
// from it.
type image struct {
	name    string
	img     *ccc.Image
	trace   []armsim.Access
	cycles  uint64
	insns   uint64   // continuous run's retired instructions
	outputs []uint32 // continuous run's outputs: the oracle
	// accesses counts the trace's monitored (main-memory) accesses.
	accesses int
	exempt   map[uint32]bool
	batch    *policysim.BatchTrace
}

// setupTimes is one set-up's cost, split by layer.
type setupTimes struct {
	total, compile, trace, batch time.Duration
}

func (st setupTimes) scaled(s float64) setupTimes {
	f := func(d time.Duration) time.Duration { return time.Duration(float64(d) * s) }
	return setupTimes{f(st.total), f(st.compile), f(st.trace), f(st.batch)}
}

// opRec is one completed op, kept for the traced run's attribution.
type opRec struct {
	img     int
	scheme  int // harsh: index into harshSchemes
	hostNS  int64
	insns   uint64
	ckpts   int
	reboots int
	jobs    int  // sweep: replays in the call
	grid    bool // sweep: continuous grid call (else powered Table 2)
}

// fleetRun is one fleet.Run call.
type fleetRun struct {
	img       int
	wallNS    int64
	elapsedNS int64
	hostNS    int64 // Σ DeviceResult.HostNS
	cpuNS     int64 // process CPU time over the call
}

// latSample is one op's host latency and its kind (see bench.cycle).
type latSample struct {
	kind int
	ms   float64
}

// tally accumulates one kind of segment (untraced or traced).
type tally struct {
	cpuNS int64 // process CPU time over the segments
	units int
	lat   []latSample
	ops   []opRec
	runs  []fleetRun

	ckpts, restarts, commitWrites, tornWrites, recovered int
	reexecCycles, wallCycles                             uint64

	mallocs         uint64
	gcCPU, totalCPU float64
	liveHeapMB      []float64 // live heap samples while ops ran

	cycles map[int]*cycleAcc
}

// cycleAcc is one cycle of op kinds: its completed ops, the host time they
// took (worker CPU time over workers, as ops overlap), their worker CPU
// time and their simulated instructions.
type cycleAcc struct {
	units  int
	costNS int64
	busyNS int64
	insns  uint64
}

// count adds completed ops of one cycle.
func (t *tally) count(cycle, units int, costNS, busyNS int64, insns uint64) {
	t.units += units
	if t.cycles == nil {
		t.cycles = map[int]*cycleAcc{}
	}
	c := t.cycles[cycle]
	if c == nil {
		c = &cycleAcc{}
		t.cycles[cycle] = c
	}
	c.units += units
	c.costNS += costNS
	c.busyNS += busyNS
	c.insns += insns
}

// cycleMedians are ops_per_s and host_ns_per_insn as medians over cycles,
// so a burst of load from elsewhere on the host moves a few cycles, not
// the figure.
func (t *tally) cycleMedians() (opsPerS, nsPerInsn float64) {
	var rate, per []float64
	for _, c := range t.cycles {
		rate = append(rate, perSec(c.units, c.costNS))
		per = append(per, ratio(float64(c.busyNS), float64(c.insns)))
	}
	return median(rate), median(per)
}

// bench is one invocation's state.
type bench struct {
	cfg    config
	wl     *workload
	out    io.Writer
	images []*image
	setups []setupTimes
	calib  []float64 // calibration kernel samples, ns per step

	mu        sync.Mutex
	nextID    int // next op id to claim
	minID     int // claim does not stop before this op id
	segFirst  int // first op id of the current segment
	attempted int
	failed    int
	errs      []string
	overhead  map[int]float64 // op id -> simulated overhead (wall/useful - 1)
	replayID  int             // sweep: next replay id

	plain, traced tally

	fleetHash string // aggregate hash of fleet chunk 0
	checks    []sweepCheck
}

func (b *bench) fail(n int, err error) {
	b.failed += n
	if len(b.errs) < 8 {
		b.errs = append(b.errs, err.Error())
	}
}

// setup compiles, traces and prepares the workload's images. The first
// set-up's images are the ones the ops use; later ones are timed and
// dropped. The times are scaled by the calibration sample taken after.
func (b *bench) setup(tr *tracer) error {
	// Collect the garbage first, so every set-up starts from the same heap,
	// and again after, so the next slice's live heap does not depend on
	// when the collector happened to run.
	runtime.GC()
	imgs, st, err := buildImages(b.wl, tr)
	if err != nil {
		return err
	}
	if b.images == nil {
		b.images = imgs
	}
	b.setups = append(b.setups, st.scaled(b.calibScale()))
	runtime.GC()
	return nil
}

// buildImages is one set-up pass, timed in the calling thread's CPU time.
func buildImages(wl *workload, tr *tracer) ([]*image, setupTimes, error) {
	var st setupTimes
	t0 := threadCPU()
	var imgs []*image
	for _, name := range wl.images {
		bm, ok := mibench.ByName(name)
		if !ok {
			return nil, st, fmt.Errorf("unknown benchmark %q", name)
		}
		im := &image{name: name}
		t := threadCPU()
		sp := tr.begin("ccc.Compile", -1, -1)
		img, err := ccc.Compile(bm.Source)
		tr.end(sp)
		if err != nil {
			return nil, st, fmt.Errorf("%s: %w", name, err)
		}
		im.img = img
		st.compile += threadCPU() - t

		t = threadCPU()
		sp = tr.begin("armsim.CollectTrace", -1, -1)
		im.trace, im.cycles, err = armsim.CollectTrace(img.Bytes, maxCycles)
		tr.end(sp)
		if err != nil {
			return nil, st, fmt.Errorf("%s: %w", name, err)
		}
		sp = tr.begin("armsim.Machine.Run", -1, -1)
		m := armsim.NewMachine()
		if err := m.Boot(img.Bytes); err != nil {
			return nil, st, err
		}
		if _, err := m.Run(maxCycles); err != nil {
			return nil, st, fmt.Errorf("%s: %w", name, err)
		}
		tr.end(sp)
		im.insns = m.CPU.Insns
		im.outputs = append([]uint32(nil), m.Mem.Outputs...)
		st.trace += threadCPU() - t
		for i := range im.trace {
			if im.trace[i].Addr < armsim.MemSize {
				im.accesses++
			}
		}

		if wl.sweepInputs {
			t = threadCPU()
			sp = tr.begin("ccc.ProgramIdempotentPCs", -1, -1)
			im.exempt = ccc.ProgramIdempotentPCs(im.trace)
			tr.end(sp)
			st.compile += threadCPU() - t
			t = threadCPU()
			sp = tr.begin("policysim.NewBatchTrace", -1, -1)
			im.batch = policysim.NewBatchTrace(im.trace, im.cycles, img.TextStart, img.TextEnd)
			tr.end(sp)
			st.batch += threadCPU() - t
		}
		imgs = append(imgs, im)
	}
	st.total = threadCPU() - t0
	return imgs, st, nil
}

// cycle is the number of op kinds; op id i has kind i mod cycle (fleet:
// image; harsh: image then scheme; sweep: job group then trace).
func (b *bench) cycle() int {
	switch b.wl.name {
	case "harsh":
		return len(b.images) * len(harshSchemes)
	case "sweep":
		return 2 * len(b.images)
	}
	return len(b.images)
}

// overheadClaims is the number of claims sim_overhead_pct covers (one
// cycle at the smoke tests' tiny size).
func (b *bench) overheadClaims() int {
	switch {
	case b.cfg.tiny:
		return b.cycle()
	case b.wl.name == "fleet":
		return fleetOverheadChunks
	case b.wl.name == "harsh":
		return harshOverheadRuns
	}
	return sweepOverheadCalls
}

// claim hands out the next op id, or -1 once the deadline has passed at a
// cycle boundary at or past minID. A segment therefore runs whole cycles,
// at least one, so every op kind appears equally often whatever the host's
// speed.
func (b *bench) claim(deadline time.Time) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.nextID != b.segFirst && b.nextID >= b.minID && b.nextID%b.cycle() == 0 && !time.Now().Before(deadline) {
		return -1
	}
	b.nextID++
	return b.nextID - 1
}

// segment runs the workload as a closed batch until the deadline, adds
// what it measured to t and returns the time it took.
func (b *bench) segment(d time.Duration, tr *tracer, t *tally) time.Duration {
	b.segFirst = b.nextID
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	gc0, cpu0 := cpuSeconds()
	t0, c0 := time.Now(), processCPU()
	t.liveHeapMB = append(t.liveHeapMB, sampleLiveHeap(func() { b.wl.segment(b, t0.Add(d), tr, t) })...)
	took := time.Since(t0)
	t.cpuNS += (processCPU() - c0).Nanoseconds()
	gc1, cpu1 := cpuSeconds()
	runtime.ReadMemStats(&ms)
	t.mallocs += ms.Mallocs - mallocs
	t.gcCPU += gc1 - gc0
	t.totalCPU += cpu1 - cpu0
	return took
}

// sampleLiveHeap runs fn and samples the heap the collector last found
// live, in MB, every 10 ms meanwhile. Unlike the resident set, the live
// heap does not swing with when the collector happens to run.
func sampleLiveHeap(fn func()) []float64 {
	stop := make(chan struct{})
	out := make(chan []float64)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		s := []float64{liveHeapMB()}
		for {
			select {
			case <-stop:
				out <- append(s, liveHeapMB())
				return
			case <-tick.C:
				s = append(s, liveHeapMB())
			}
		}
	}()
	fn()
	close(stop)
	return <-out
}

func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// cpuSeconds reads the runtime's GC and total CPU-time estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return
}

// mix derives an op's seed from the run seed and the op id (splitmix64).
func mix(seed uint64, id int) uint64 {
	x := seed + 0x9E3779B97F4A7C15*uint64(id+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// detectorConfig is the paper's hardware-scale configuration, 16,8,4,4
// with every optimization, as clank-sim and clank-fleet build it.
func detectorConfig() clank.Config {
	return clank.Config{ReadFirst: 16, WriteFirst: 8, WriteBack: 4, AddrPrefix: 4, PrefixLowBits: 6, Opts: clank.OptAll}
}

// ---- fleet ----

func (b *bench) fleetOptions(chunk, nworkers int) fleet.Options {
	n := fleetChunk
	if b.cfg.tiny {
		n = 8
	}
	return fleet.Options{
		Devices:         n,
		Workers:         nworkers,
		ShardSize:       fleetShard,
		Seed:            mix(b.cfg.seed, chunk),
		Config:          detectorConfig(),
		MeanOn:          fleetMeanOn,
		MinOn:           fleetMinOn,
		ProgressDefault: fleetMeanOn / 4,
	}
}

func fleetSegment(b *bench, deadline time.Time, tr *tracer, t *tally) {
	for c := b.claim(deadline); c >= 0; c = b.claim(deadline) {
		ii := c % len(b.images)
		im := b.images[ii]
		o := b.fleetOptions(c, workers())
		sp := tr.begin("fleet.Run", -1, c)
		t0, c0 := time.Now(), processCPU()
		rep, err := fleet.Run(im.img, o)
		wall, cpu := time.Since(t0).Nanoseconds(), (processCPU() - c0).Nanoseconds()
		tr.end(sp)
		b.attempted += o.Devices
		if err != nil {
			b.fail(o.Devices, fmt.Errorf("fleet chunk %d: %w", c, err))
			continue
		}
		if c == 0 {
			b.fleetHash = rep.Agg.Hash
		}
		if c == b.cfg.corruptOp {
			rep.Results[0].Outputs++
		}
		run := fleetRun{img: ii, wallNS: wall, elapsedNS: rep.Host.ElapsedNS, cpuNS: cpu}
		s := b.calibScale()
		// A device's latency is its wall time times the chunk's scaled CPU
		// time over its devices' summed wall time: fleet times devices by
		// the wall clock, and the ratio takes out what the host stole.
		var sumHost int64
		for _, r := range rep.Results {
			sumHost += r.HostNS
		}
		scale := ratio(s*float64(cpu), float64(sumHost))
		units, insns := 0, uint64(0)
		for _, r := range rep.Results {
			if !r.Completed || r.Err != "" || r.Outputs != len(im.outputs) {
				b.fail(1, fmt.Errorf("fleet chunk %d device %d on %s: completed %v, %d/%d outputs %s",
					c, r.Device, im.name, r.Completed, r.Outputs, len(im.outputs), r.Err))
				continue
			}
			run.hostNS += r.HostNS
			units++
			insns += r.Insns
			t.lat = append(t.lat, latSample{ii, float64(r.HostNS) * scale / 1e6})
			t.ckpts += r.Checkpoints
			t.restarts += r.Boots
			t.commitWrites += r.CommitWrites
			t.tornWrites += r.TornWrites
			t.recovered += r.RecoveredCommits
			t.reexecCycles += r.ReexecCycles
			t.wallCycles += r.WallCycles
			t.ops = append(t.ops, opRec{img: ii, hostNS: r.HostNS, insns: r.Insns, ckpts: r.Checkpoints, reboots: r.Boots})
			b.overhead[c*o.Devices+r.Device] = float64(r.WallCycles)/float64(r.UsefulCycles) - 1
		}
		t.runs = append(t.runs, run)
		scpu := int64(s * float64(cpu))
		t.count(c/b.cycle(), units, scpu/int64(o.Workers), scpu, insns)
	}
}

// fleetVerify reruns chunk 0 on one worker: the aggregate hash must not
// depend on the worker count. A mismatch fails every device of the chunk.
func fleetVerify(b *bench) error {
	o := b.fleetOptions(0, 1)
	rep, err := fleet.Run(b.images[0].img, o)
	if err != nil {
		return fmt.Errorf("fleet 1-worker rerun: %w", err)
	}
	if rep.Agg.Hash != b.fleetHash {
		b.fail(o.Devices, fmt.Errorf("fleet chunk 0: aggregate hash %s at %d workers, %s at 1 worker",
			b.fleetHash, workers(), rep.Agg.Hash))
	}
	return nil
}

// ---- harsh ----

var harshSchemes = []scheme.Factory{scheme.ClankFactory{}, scheme.AlpacaFactory{}, scheme.DiCAFactory{}}

// harshOp is one verified single-device run, as clank-sim does it, plus a
// torn-write fault stream. It returns the run's stats and host time (the
// CPU time of the calling thread, which the caller has locked); the caller
// checks the outputs.
func (b *bench) harshOp(i, ii, si int, verify bool, tr *tracer) (opRec, intermittent.Stats, error) {
	im := b.images[ii]
	rec := opRec{img: ii, scheme: si}
	supply := power.NewSupply(power.Exponential{Mean: harshMeanOn, Min: harshMinOn}, int64(mix(b.cfg.seed, i)))
	root := tr.begin("harsh.op", -1, i)
	defer tr.end(root)
	t0 := threadCPU()
	sp := tr.begin("intermittent.NewMachine", root, i)
	m, err := intermittent.NewMachine(im.img, intermittent.Options{
		Config:          detectorConfig(),
		Scheme:          harshSchemes[si],
		Supply:          supply,
		ProgressDefault: harshMeanOn / 4,
		Verify:          verify,
	})
	tr.end(sp)
	if err != nil {
		return rec, intermittent.Stats{}, err
	}
	fs := power.NewFaultStream(mix(b.cfg.seed^faultTag, i), harshFaultRate)
	m.SetNVFault(func(int) (bool, uint32) { return fs.Next() })
	sp = tr.begin("intermittent.Machine.Run", root, i)
	st, err := m.Run()
	tr.end(sp)
	rec.hostNS = (threadCPU() - t0).Nanoseconds()
	rec.insns = m.Insns()
	rec.ckpts = st.Checkpoints
	rec.reboots = st.Restarts
	return rec, st, err
}

func harshSegment(b *bench, deadline time.Time, tr *tracer, t *tally) {
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for i := b.claim(deadline); i >= 0; i = b.claim(deadline) {
				ii := i % len(b.images)
				rec, st, err := b.harshOp(i, ii, (i/len(b.images))%len(harshSchemes), true, tr)
				s := b.calibScale()
				im := b.images[rec.img]
				if i == b.cfg.corruptOp && len(st.Outputs) > 0 {
					st.Outputs[0] ^= 1
				}
				if err == nil && !slices.Equal(st.Outputs, im.outputs) {
					err = fmt.Errorf("outputs differ from the continuous run (%d vs %d words)", len(st.Outputs), len(im.outputs))
				}
				b.mu.Lock()
				b.attempted++
				if err != nil {
					b.fail(1, fmt.Errorf("harsh op %d (%s on %s): %w", i, harshSchemes[rec.scheme].Name(), im.name, err))
				} else {
					host := int64(s * float64(rec.hostNS))
					t.count(i/b.cycle(), 1, host/int64(workers()), host, rec.insns)
					t.lat = append(t.lat, latSample{i % b.cycle(), float64(host) / 1e6})
					t.ckpts += st.Checkpoints
					t.restarts += st.Restarts
					t.commitWrites += st.CommitWrites
					t.tornWrites += st.TornWrites
					t.recovered += st.RecoveredCommits
					t.reexecCycles += st.ReexecCycles
					t.wallCycles += st.WallCycles
					t.ops = append(t.ops, rec)
					b.overhead[i] = st.Overhead()
				}
				b.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// ---- sweep ----

// sweepCheck is one sampled replay to compare against scalar Simulate.
type sweepCheck struct {
	img, call, job int
	got            policysim.Result
}

// gridConfigs is clank-explore's buffer grid (96 configurations at
// max-rf 32) for one image.
func gridConfigs(im *image, maxRF int) []clank.Config {
	var cfgs []clank.Config
	for rf := 1; rf <= maxRF; rf *= 2 {
		for _, wf := range []int{0, rf / 2} {
			for _, wb := range []int{0, 1, 2, 4} {
				for _, ap := range []int{0, 4} {
					cfg := clank.Config{ReadFirst: rf, WriteFirst: wf, WriteBack: wb, AddrPrefix: ap,
						Opts: clank.OptAll, TextStart: im.img.TextStart, TextEnd: im.img.TextEnd, ExemptPCs: im.exempt}
					if ap > 0 {
						cfg.PrefixLowBits = 6
					}
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	return cfgs
}

func (b *bench) gridMaxRF() int {
	if b.cfg.tiny {
		return 2
	}
	return 32
}

// sweepCall maps a call id to its trace and job group: calls alternate
// the continuous grid and the powered Table 2 group, cycling the traces.
func (b *bench) sweepCall(call int) (ii int, grid bool) {
	return (call / 2) % len(b.images), call%2 == 0
}

// sweepJobs builds call's jobs on im. Each powered job gets a private
// supply seeded from (seed, call, job), so any one job can be rebuilt alone.
func (b *bench) sweepJobs(im *image, call int, grid, verify bool) []policysim.Job {
	var jobs []policysim.Job
	if grid {
		for _, cfg := range gridConfigs(im, b.gridMaxRF()) {
			jobs = append(jobs, policysim.Job{Config: cfg, Opts: policysim.Options{Verify: verify}})
		}
		return jobs
	}
	for _, nc := range experiments.Table2Configs() {
		for s := 0; s < sweepSeeds; s++ {
			cfg := nc.Config
			cfg.TextStart, cfg.TextEnd = im.img.TextStart, im.img.TextEnd
			if nc.Compiler {
				cfg.ExemptPCs = im.exempt
			}
			wdt := uint64(sweepMeanOn / 4)
			if nc.PerfWatchdog {
				wdt = experiments.OptimalPerfWatchdog(clank.DefaultCosts().CheckpointBase, sweepMeanOn)
			}
			seed := int64(mix(b.cfg.seed, call*64+len(jobs)))
			jobs = append(jobs, policysim.Job{Config: cfg, Opts: policysim.Options{
				Supply:          power.NewSupply(power.Exponential{Mean: sweepMeanOn, Min: 500}, seed),
				ProgressDefault: sweepMeanOn / 4,
				PerfWatchdog:    wdt,
				Verify:          verify,
			}})
		}
	}
	return jobs
}

func sweepSegment(b *bench, deadline time.Time, tr *tracer, t *tally) {
	for call := b.claim(deadline); call >= 0; call = b.claim(deadline) {
		ii, grid := b.sweepCall(call)
		im := b.images[ii]
		jobs := b.sweepJobs(im, call, grid, true)
		sp := tr.begin("policysim.Sweep.Run", -1, call)
		c0 := processCPU()
		res, err := (&policysim.Sweep{Trace: im.batch, Jobs: jobs, Workers: workers(), ShardSize: sweepShard}).Run()
		cpu := (processCPU() - c0).Nanoseconds()
		tr.end(sp)
		s := b.calibScale()
		b.attempted += len(jobs)
		base := b.replayID
		b.replayID += len(jobs)
		if err != nil {
			b.fail(len(jobs), fmt.Errorf("sweep call %d on %s: %w", call, im.name, err))
			continue
		}
		j := int(mix(b.cfg.seed, -call-1) % uint64(len(jobs)))
		if call == b.cfg.corruptOp {
			res[j].WallCycles++
		}
		b.checks = append(b.checks, sweepCheck{img: ii, call: call, job: j, got: res[j]})
		w, scpu := int64(workers()), int64(s*float64(cpu))
		t.count(call/b.cycle(), len(jobs), scpu/w, scpu, uint64(len(jobs))*im.insns)
		t.lat = append(t.lat, latSample{call % b.cycle(), float64(scpu/w) / 1e6})
		t.ops = append(t.ops, opRec{img: ii, hostNS: cpu, jobs: len(jobs), grid: grid})
		for k := range res {
			b.overhead[base+k] = res[k].Overhead()
		}
	}
}

// sweepVerify replays a sample of the sweep's jobs on the scalar engine:
// each must be byte-identical to what the batched sweep returned.
func sweepVerify(b *bench) error {
	const maxChecks = 24
	stride := (len(b.checks) + maxChecks - 1) / maxChecks
	for i := 0; i < len(b.checks); i++ {
		c := b.checks[i]
		if i%stride != 0 && c.call != b.cfg.corruptOp {
			continue
		}
		im := b.images[c.img]
		_, grid := b.sweepCall(c.call)
		job := b.sweepJobs(im, c.call, grid, true)[c.job]
		want, err := policysim.Simulate(im.trace, im.cycles, job.Config, job.Opts)
		if err != nil {
			return fmt.Errorf("sweep check: scalar replay of call %d job %d: %w", c.call, c.job, err)
		}
		if want != c.got {
			b.fail(1, fmt.Errorf("sweep call %d job %d on %s: batched result differs from scalar Simulate", c.call, c.job, im.name))
		}
	}
	return nil
}
