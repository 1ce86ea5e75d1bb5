package fleet

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/power"
	"repro/internal/scheme"
)

// fleetProgram is small enough that one device simulates in well under a
// millisecond but still checkpoints, rolls back, and emits outputs.
const fleetProgram = `
int state[8];
int acc;

int main(void) {
	int i;
	int sum = 0;
	acc = 7;
	for (i = 0; i < 60; i++) {
		int j;
		acc = acc * 1103515245 + 12345;
		j = (acc >> 8) & 7;
		state[j] = state[j] + i;
		sum += state[j];
	}
	__output((uint)sum);
	return 0;
}
`

var fleetImgOnce struct {
	sync.Once
	img *ccc.Image
	err error
}

func fleetImage(t testing.TB) *ccc.Image {
	t.Helper()
	fleetImgOnce.Do(func() {
		fleetImgOnce.img, fleetImgOnce.err = ccc.Compile(fleetProgram)
	})
	if fleetImgOnce.err != nil {
		t.Fatalf("compile: %v", fleetImgOnce.err)
	}
	return fleetImgOnce.img
}

func baseOptions(devices, workers int) Options {
	return Options{
		Devices:         devices,
		Workers:         workers,
		Seed:            42,
		Config:          clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll},
		MeanOn:          20_000,
		ProgressDefault: 5_000,
	}
}

// deterministicView strips the host-time sections from a report so two
// runs can be compared for the byte-identical guarantee: the aggregate
// (including its hash), plus both sink encodings of the device stream.
func deterministicView(t *testing.T, rep *Report) (Aggregate, string, string) {
	t.Helper()
	var jsonl, csv bytes.Buffer
	if err := WriteJSONL(&jsonl, rep.Results); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csv, rep.Results); err != nil {
		t.Fatal(err)
	}
	return rep.Agg, jsonl.String(), csv.String()
}

// TestWorkerCountInvariance is the determinism battery: the same fleet at
// worker counts 1, 4, and NumCPU — plus a rerun at 4 workers and a run
// with a different shard size — must produce byte-identical aggregates
// and per-device streams. Worker-count invariance is also the proof that
// ResetDevice is complete: different worker counts reuse machines across
// completely different device sequences.
func TestWorkerCountInvariance(t *testing.T) {
	img := fleetImage(t)
	const devices = 96

	ref, err := Run(img, baseOptions(devices, 1))
	if err != nil {
		t.Fatal(err)
	}
	refAgg, refJSONL, refCSV := deterministicView(t, ref)
	if refAgg.Completed == 0 {
		t.Fatal("no device completed; the battery is not exercising anything")
	}

	cases := []struct {
		name string
		opts Options
	}{
		{"workers=4", baseOptions(devices, 4)},
		{"workers=4 rerun", baseOptions(devices, 4)},
		{"workers=NumCPU", baseOptions(devices, runtime.NumCPU())},
		{"shard=7", func() Options { o := baseOptions(devices, 4); o.ShardSize = 7; return o }()},
		{"shard=1", func() Options { o := baseOptions(devices, runtime.NumCPU()); o.ShardSize = 1; return o }()},
	}
	for _, c := range cases {
		rep, err := Run(img, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		agg, jsonl, csv := deterministicView(t, rep)
		if !reflect.DeepEqual(agg, refAgg) {
			t.Errorf("%s: aggregate diverged:\n  ref: %+v\n  got: %+v", c.name, refAgg, agg)
		}
		if jsonl != refJSONL {
			t.Errorf("%s: JSONL stream diverged", c.name)
		}
		if csv != refCSV {
			t.Errorf("%s: CSV stream diverged", c.name)
		}
	}
}

// TestSchemeFleetInvariance extends the determinism battery across runtime
// schemes: each scheme's fleet must complete, produce byte-identical
// telemetry at different worker counts and shard sizes (which also proves
// ResetDevice fully restores scheme state between devices), and the three
// schemes must not collapse onto one another's numbers — their checkpoint
// placements differ, so the aggregates must too.
func TestSchemeFleetInvariance(t *testing.T) {
	img := fleetImage(t)
	const devices = 64

	aggs := make(map[string]Aggregate)
	for _, name := range scheme.Names() {
		fac, _ := scheme.ByName(name)
		withScheme := func(workers, shard int) Options {
			o := baseOptions(devices, workers)
			o.Scheme = fac
			o.ShardSize = shard
			return o
		}
		ref, err := Run(img, withScheme(1, 0))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		refAgg, refJSONL, refCSV := deterministicView(t, ref)
		if refAgg.Completed != devices {
			t.Fatalf("%s: only %d/%d devices completed", name, refAgg.Completed, devices)
		}
		rep, err := Run(img, withScheme(4, 7))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		agg, jsonl, csv := deterministicView(t, rep)
		if !reflect.DeepEqual(agg, refAgg) {
			t.Errorf("%s: aggregate diverged across worker counts:\n  ref: %+v\n  got: %+v", name, refAgg, agg)
		}
		if jsonl != refJSONL || csv != refCSV {
			t.Errorf("%s: device stream diverged across worker counts", name)
		}
		aggs[name] = refAgg
	}

	// Clank's reactive checkpoints and the scheduled schemes place commits
	// differently; identical aggregates would mean the Scheme option never
	// reached the devices.
	if reflect.DeepEqual(aggs["clank"], aggs["alpaca"]) {
		t.Error("clank and alpaca fleets produced identical aggregates")
	}
	if reflect.DeepEqual(aggs["alpaca"], aggs["dica"]) {
		t.Error("alpaca and dica fleets produced identical aggregates")
	}
}

// TestSeedPerturbation is the meta-test behind the battery: changing one
// device's supply must change exactly that device's result — anything
// else leaking across devices (shared RNG, incomplete reset, result
// aliasing) shows up as a second changed row or an unchanged target.
func TestSeedPerturbation(t *testing.T) {
	img := fleetImage(t)
	const devices = 48
	const target = 17

	ref, err := Run(img, baseOptions(devices, 4))
	if err != nil {
		t.Fatal(err)
	}

	o := baseOptions(devices, 4)
	o.Supply = func(dev int) power.Source {
		seed := DeviceSeed(o.Seed, dev)
		if dev == target {
			seed = DeviceSeed(o.Seed+1, dev)
		}
		return power.NewSupply(power.Exponential{Mean: o.MeanOn, Min: 500}, int64(seed))
	}
	pert, err := Run(img, o)
	if err != nil {
		t.Fatal(err)
	}

	changed := 0
	for dev := 0; dev < devices; dev++ {
		refEnc := appendDeviceBinary(nil, &ref.Results[dev])
		pertEnc := appendDeviceBinary(nil, &pert.Results[dev])
		if !bytes.Equal(refEnc, pertEnc) {
			changed++
			if dev != target {
				t.Errorf("device %d changed; only %d was perturbed", dev, target)
			}
		}
	}
	if changed == 0 {
		t.Error("perturbing the target device's seed changed nothing")
	}
	if ref.Agg.Hash == pert.Agg.Hash {
		t.Error("aggregate hash did not notice a changed device")
	}
}

// TestTraceReplayFleet runs the fleet on a recorded supply: device i
// starts at sample i of the shared recording (power.Trace.Fork), and the
// stagger must be deterministic across worker counts like everything
// else.
func TestTraceReplayFleet(t *testing.T) {
	img := fleetImage(t)
	tr := power.NewTrace([]uint64{15_000, 40_000, 8_000, 25_000, 60_000})

	runWith := func(workers int) (Aggregate, string) {
		o := baseOptions(40, workers)
		o.Trace = tr
		rep, err := Run(img, o)
		if err != nil {
			t.Fatal(err)
		}
		agg, jsonl, _ := deterministicView(t, rep)
		return agg, jsonl
	}
	agg1, jsonl1 := runWith(1)
	agg4, jsonl4 := runWith(4)
	if !reflect.DeepEqual(agg1, agg4) {
		t.Errorf("trace-replay aggregate diverged across worker counts:\n  1: %+v\n  4: %+v", agg1, agg4)
	}
	if jsonl1 != jsonl4 {
		t.Error("trace-replay JSONL diverged across worker counts")
	}
	if agg1.Completed != 40 {
		t.Errorf("completed %d/40 devices on the recorded supply", agg1.Completed)
	}
	// Devices with different trace phases must not all be clones: at
	// least two distinct wall-cycle outcomes among the first Len devices.
	if agg1.Devices >= tr.Len() {
		first := jsonl1[:strings.IndexByte(jsonl1, '\n')]
		distinct := false
		for _, line := range strings.Split(jsonl1, "\n")[1:tr.Len()] {
			if line != "" && line != first {
				distinct = true
			}
		}
		if !distinct {
			t.Error("all trace phases produced identical devices; Fork stagger is not taking effect")
		}
	}
}

// TestFleetSmoke is the CI smoke: 1000 devices on 2 workers must complete
// with nonzero forward progress everywhere it counts, and the hash must
// be stable across two identical runs.
func TestFleetSmoke(t *testing.T) {
	img := fleetImage(t)
	o := baseOptions(1000, 2)
	rep, err := Run(img, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Agg.Completed != 1000 || rep.Agg.Errors != 0 {
		t.Fatalf("completed %d/1000 devices, %d errors", rep.Agg.Completed, rep.Agg.Errors)
	}
	if rep.Agg.ProgressPermille.P50 == 0 {
		t.Error("median forward progress is zero")
	}
	if rep.Agg.Boots == 0 || rep.Agg.Checkpoints == 0 {
		t.Error("fleet saw no power failures or no checkpoints; smoke is not intermittent")
	}
	if rep.Agg.UsefulCycles == 0 || rep.Agg.Insns == 0 {
		t.Error("fleet retired no useful work")
	}

	rep2, err := Run(img, o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Agg.Hash != rep2.Agg.Hash {
		t.Errorf("aggregate hash unstable across identical runs: %s vs %s", rep.Agg.Hash, rep2.Agg.Hash)
	}
}

// TestFleetGoldenHash pins the aggregate hash of the TestFleetSmoke
// options, with and without torn NV writes, to the digests recorded before
// the run-time accounting moved into clank.Ledger: every device's cycle
// breakdown, checkpoint count and boot count feeds the hash.
func TestFleetGoldenHash(t *testing.T) {
	img := fleetImage(t)
	for _, c := range []struct {
		faultRate float64
		want      string
	}{
		{0, "de05affcfbdcb983"},
		{0.003, "d7c99fed37babc2b"},
	} {
		o := baseOptions(1000, 2)
		o.NVFaultRate, o.NVFaultSeed = c.faultRate, 9
		rep, err := Run(img, o)
		if err != nil {
			t.Fatal(err)
		}
		if c.faultRate > 0 && rep.Agg.TornWrites == 0 {
			t.Errorf("fault rate %v tore no writes", c.faultRate)
		}
		if rep.Agg.Hash != c.want {
			t.Errorf("fault rate %v: aggregate hash %s, want %s", c.faultRate, rep.Agg.Hash, c.want)
		}
	}
}

// TestPercentileConvention pins the (n-1)*p/100 index rule.
func TestPercentileConvention(t *testing.T) {
	cases := []struct {
		sorted []uint64
		want   Percentiles
	}{
		{nil, Percentiles{}},
		{[]uint64{5}, Percentiles{P50: 5, P90: 5, P99: 5}},
		{[]uint64{1, 2}, Percentiles{P50: 1, P90: 1, P99: 1}},
		{[]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, Percentiles{P50: 5, P90: 9, P99: 9}},
	}
	for _, c := range cases {
		if got := percentilesOf(c.sorted); got != c.want {
			t.Errorf("percentilesOf(%v) = %+v, want %+v", c.sorted, got, c.want)
		}
	}
	hundred := make([]uint64, 100)
	for i := range hundred {
		hundred[i] = uint64(i + 1)
	}
	if got := percentilesOf(hundred); got != (Percentiles{P50: 50, P90: 90, P99: 99}) {
		t.Errorf("percentilesOf(1..100) = %+v", got)
	}
}

// TestSinkShapes sanity-checks both sinks against a tiny fleet.
func TestSinkShapes(t *testing.T) {
	img := fleetImage(t)
	rep, err := Run(img, baseOptions(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	var jsonl, csvBuf bytes.Buffer
	if err := WriteJSONL(&jsonl, rep.Results); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(jsonl.String(), "\n"); lines != 5 {
		t.Errorf("JSONL has %d lines, want 5", lines)
	}
	if strings.Contains(jsonl.String(), "HostNS") || strings.Contains(jsonl.String(), "host_ns") {
		t.Error("JSONL leaked the non-deterministic host-time field")
	}
	if err := WriteCSV(&csvBuf, rep.Results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csvBuf.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("CSV has %d lines, want header + 5", len(lines))
	}
	if lines[0] != strings.Join(csvHeader, ",") {
		t.Errorf("CSV header = %q", lines[0])
	}
	for i, line := range lines[1:] {
		if got := strings.Count(line, ",") + 1; got != len(csvHeader) {
			t.Errorf("CSV row %d has %d fields, want %d", i, got, len(csvHeader))
		}
	}
}

// TestNVFaultFleetInvariance runs the fleet on an adversarial NV substrate
// — every commit-protocol write tears with probability 0.5% — and demands
// the same guarantees as the pristine battery: the telemetry (including the
// new fault counters) is byte-identical at any worker count, devices still
// complete, and the faults actually bite (nonzero torn writes and recovered
// commits). The detect-and-recover guarantee shows up as a structural
// invariant: single faults are always absorbed by the A/B fallback, so no
// device ever takes the degraded fresh-boot path.
func TestNVFaultFleetInvariance(t *testing.T) {
	img := fleetImage(t)
	const devices = 96
	withFaults := func(workers int) Options {
		o := baseOptions(devices, workers)
		o.NVFaultRate = 0.005
		o.NVFaultSeed = 7
		return o
	}

	ref, err := Run(img, withFaults(1))
	if err != nil {
		t.Fatal(err)
	}
	refAgg, refJSONL, refCSV := deterministicView(t, ref)
	if refAgg.TornWrites == 0 {
		t.Fatal("0.5% fault rate tore no writes; the injector is not wired")
	}
	if refAgg.DetectedCorrupt == 0 || refAgg.RecoveredCommits == 0 {
		t.Fatalf("faults fired but recovery never engaged: %d detected, %d recovered",
			refAgg.DetectedCorrupt, refAgg.RecoveredCommits)
	}
	if refAgg.DegradedBoots != 0 {
		t.Errorf("single-fault-per-outage substrate forced %d degraded boots", refAgg.DegradedBoots)
	}
	if refAgg.Completed == 0 {
		t.Error("no device completed under faults; forward progress is gone")
	}

	for _, workers := range []int{4, runtime.NumCPU()} {
		rep, err := Run(img, withFaults(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		agg, jsonl, csv := deterministicView(t, rep)
		if !reflect.DeepEqual(agg, refAgg) {
			t.Errorf("workers=%d: aggregate diverged under faults:\n  ref: %+v\n  got: %+v",
				workers, refAgg, agg)
		}
		if jsonl != refJSONL || csv != refCSV {
			t.Errorf("workers=%d: device stream diverged under faults", workers)
		}
	}

	// The fault seed is a real knob: a different seed must move the fault
	// placement (hash), and rate 0 must mean a literally pristine run.
	reseeded := withFaults(1)
	reseeded.NVFaultSeed = 8
	rep2, err := Run(img, reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Agg.Hash == refAgg.Hash {
		t.Error("changing the fault seed did not change the telemetry")
	}
	// Rate 0 must inject nothing and never degrade — but DetectedCorrupt
	// stays legitimately nonzero: a natural outage mid-commit leaves a
	// partially written record that the CRC seal rejects at the next boot.
	clean, err := Run(img, baseOptions(devices, 2))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Agg.TornWrites != 0 || clean.Agg.DegradedBoots != 0 {
		t.Errorf("pristine run reports injected faults: %d torn writes, %d degraded boots",
			clean.Agg.TornWrites, clean.Agg.DegradedBoots)
	}
}

// TestRunRejectsEmptyFleet pins the setup-error path.
func TestRunRejectsEmptyFleet(t *testing.T) {
	if _, err := Run(fleetImage(t), Options{}); err == nil {
		t.Error("Run accepted a zero-device fleet")
	}
}
