package intermittent

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/power"
	"repro/internal/scheme"
)

// sharedTestConfig is the full-featured hardware configuration the shared
// tests run under; OptAll turns on the TEXT window, so the shared cache
// carries kindLDRLitText classifications that every attaching machine must
// agree with.
func sharedTestConfig() clank.Config {
	return clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll}
}

// TestSharedMachineDifferential proves a machine on the frozen shared
// cache is indistinguishable from a private machine: identical Stats —
// cycles, checkpoints, reasons, outputs — across several power-failure
// seeds, with the reference monitor verifying both runs.
func TestSharedMachineDifferential(t *testing.T) {
	img := compileTest(t, testProgram)
	opts := Options{Config: sharedTestConfig(), ProgressDefault: 30_000, Verify: true}
	prog, err := BuildSharedProgram(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Runs == 0 {
		t.Error("warm-up found no fused runs in the test program")
	}

	for _, seed := range []int64{1, 7, 42} {
		o := opts
		o.Supply = power.NewSupply(power.Exponential{Mean: 3000, Min: 500}, seed)
		priv, err := NewMachine(img, o)
		if err != nil {
			t.Fatal(err)
		}
		stPriv, err := priv.Run()
		if err != nil {
			t.Fatalf("seed %d private: %v", seed, err)
		}

		o.Supply = power.NewSupply(power.Exponential{Mean: 3000, Min: 500}, seed)
		shared, err := NewMachineShared(img, o, prog)
		if err != nil {
			t.Fatal(err)
		}
		stShared, err := shared.Run()
		if err != nil {
			t.Fatalf("seed %d shared: %v", seed, err)
		}

		if !reflect.DeepEqual(stPriv, stShared) {
			t.Errorf("seed %d: shared run diverged from private:\n  private: %+v\n  shared:  %+v",
				seed, stPriv, stShared)
		}
		if !shared.cpu.Frozen() {
			t.Errorf("seed %d: shared machine fell off the frozen cache", seed)
		}
	}
}

// TestSharedMachineRejectsEngineOverrides pins the constructor contract: a
// shared machine needs a program, built for its own TEXT window.
func TestSharedMachineRejectsEngineOverrides(t *testing.T) {
	img := compileTest(t, testProgram)
	opts := Options{Config: sharedTestConfig()}
	prog, err := BuildSharedProgram(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMachineShared(img, opts, nil); err == nil {
		t.Error("NewMachineShared accepted a nil shared program")
	}
	// A mismatched TEXT window (OptIgnoreText off vs the build's on) must
	// be refused at construction, not mis-executed.
	if _, err := NewMachineShared(img, Options{Config: clank.Config{ReadFirst: 8}}, prog); err == nil {
		t.Error("NewMachineShared accepted a machine with a different TEXT window")
	}
}

// TestSharedMachineConcurrentReboots is the two-machines-one-image race
// test the CI -race job leans on: concurrent devices executing, rebooting
// (ResetDevice), and power-cycling through one frozen cache — with a
// shared ExemptPCs map in the configuration, covering the read-only
// classification maps clank shares across devices.
func TestSharedMachineConcurrentReboots(t *testing.T) {
	img := compileTest(t, testProgram)
	cfg := sharedTestConfig()
	// The map is shared by value-copied Configs across all devices; clank
	// only ever reads it, which -race verifies here.
	cfg.ExemptPCs = map[uint32]bool{0x104: true}
	opts := Options{Config: cfg, ProgressDefault: 30_000}
	prog, err := BuildSharedProgram(img, opts)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for dev := 0; dev < 2; dev++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			m, err := NewMachineShared(img, opts, prog)
			if err != nil {
				errs <- err
				return
			}
			for boot := 0; boot < 3; boot++ {
				m.ResetDevice(power.NewSupply(power.Exponential{Mean: 3000, Min: 500}, int64(dev*100+boot)))
				if _, err := m.Run(); err != nil {
					errs <- err
					return
				}
			}
		}(dev)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSharedMachineSelfModifying runs the self-patching image through the
// shared path: the build must freeze decode-only (no runs from patched
// text), each device must copy-on-write to a private cache and produce
// the patched output, and ResetDevice must rejoin the frozen cache.
func TestSharedMachineSelfModifying(t *testing.T) {
	img := selfModImage()
	opts := Options{Config: sharedTestConfig()}
	prog, err := BuildSharedProgram(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Runs != 0 {
		t.Errorf("self-modifying warm-up froze %d runs, want 0", prog.Runs)
	}
	m, err := NewMachineShared(img, opts, prog)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{7, 0x63}
	for device := 0; device < 3; device++ {
		st, err := m.Run()
		if err != nil {
			t.Fatalf("device %d: %v", device, err)
		}
		if !outputsEquivalent(want, st.Outputs) {
			t.Fatalf("device %d outputs = %v, want %v", device, st.Outputs, want)
		}
		if m.cpu.Frozen() {
			t.Fatalf("device %d never left the frozen cache despite patching text", device)
		}
		m.ResetDevice(nil)
		if !m.cpu.Frozen() {
			t.Fatalf("ResetDevice did not rejoin the frozen cache after device %d", device)
		}
	}
}

// TestResetDeviceMatchesFreshMachine proves ResetDevice's completeness:
// a reset device must behave identically to a freshly constructed one
// under the same deterministic supply — worker-count invariance in the
// fleet engine is built on exactly this property.
func TestResetDeviceMatchesFreshMachine(t *testing.T) {
	img := compileTest(t, testProgram)
	opts := Options{Config: sharedTestConfig(), ProgressDefault: 30_000}
	prog, err := BuildSharedProgram(img, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Reused machine: run three devices with different seeds, then re-run
	// the first seed; fresh machine: run the first seed directly.
	reused, err := NewMachineShared(img, opts, prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{11, 22, 33} {
		reused.ResetDevice(power.NewSupply(power.Exponential{Mean: 3000, Min: 500}, seed))
		if _, err := reused.Run(); err != nil {
			t.Fatal(err)
		}
	}
	reused.ResetDevice(power.NewSupply(power.Exponential{Mean: 3000, Min: 500}, 11))
	stReused, err := reused.Run()
	if err != nil {
		t.Fatal(err)
	}
	insnsReused := reused.Insns()

	o := opts
	o.Supply = power.NewSupply(power.Exponential{Mean: 3000, Min: 500}, 11)
	fresh, err := NewMachineShared(img, o, prog)
	if err != nil {
		t.Fatal(err)
	}
	stFresh, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stFresh, stReused) {
		t.Errorf("reset device diverged from fresh machine:\n  fresh:  %+v\n  reused: %+v", stFresh, stReused)
	}
	if insnsReused != fresh.Insns() {
		t.Errorf("per-device Insns = %d on the reused machine, %d fresh", insnsReused, fresh.Insns())
	}
}

// TestSharedFootprint documents the point of sharing: the per-device
// footprint of a shared-program machine must be far below a private one
// (the ~1.6 MB decode+fusion cache is amortized), and the Footprint
// helper must notice when self-modifying code re-privatizes the cache.
func TestSharedFootprint(t *testing.T) {
	img := compileTest(t, testProgram)
	opts := Options{Config: sharedTestConfig()}
	prog, err := BuildSharedProgram(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := NewMachine(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewMachineShared(img, opts, prog)
	if err != nil {
		t.Fatal(err)
	}
	fPriv, fShared := priv.Footprint(), shared.Footprint()
	if fShared >= fPriv {
		t.Errorf("shared footprint %d >= private %d", fShared, fPriv)
	}
	if fPriv-fShared < 1<<20 {
		t.Errorf("sharing saves only %d bytes per device; the decode cache is not being amortized", fPriv-fShared)
	}
	if prog.FootprintBytes() == 0 {
		t.Error("shared program reports zero footprint")
	}

	// A self-modifying device clones the cache and re-owns its bytes.
	smc, err := NewMachineShared(selfModImage(), opts, mustBuild(t, selfModImage(), opts))
	if err != nil {
		t.Fatal(err)
	}
	before := smc.Footprint()
	if _, err := smc.Run(); err != nil {
		t.Fatal(err)
	}
	if after := smc.Footprint(); after <= before {
		t.Errorf("footprint did not grow after copy-on-write: before %d, after %d", before, after)
	}
}

func mustBuild(t *testing.T, img *ccc.Image, opts Options) *armsim.SharedProgram {
	t.Helper()
	prog, err := BuildSharedProgram(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSharedResetDeviceAllocFlat is the fleet steady-state allocation
// guard (run without -race in CI's alloc step): after warm-up, simulating
// one more device on a reused machine — reboot-heavy fixed supply, reset,
// full run — must cost at most the one output-snapshot allocation Run
// makes, not anything proportional to boots or devices.
func TestSharedResetDeviceAllocFlat(t *testing.T) {
	img := compileTest(t, testProgram)
	opts := Options{
		Config:          sharedTestConfig(),
		ProgressDefault: 30_000,
		Supply:          power.NewSupply(power.Fixed{Cycles: 20_000}, 1),
	}
	prog, err := BuildSharedProgram(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachineShared(img, opts, prog)
	if err != nil {
		t.Fatal(err)
	}
	device := func() {
		m.ResetDevice(nil)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if !m.stats.Completed || m.stats.Restarts == 0 {
			t.Fatal("device run was not reboot-heavy; the guard is not testing steady state")
		}
	}
	for i := 0; i < 3; i++ {
		device() // warm-up: scratch buffers reach steady size
	}
	if allocs := testing.AllocsPerRun(10, device); allocs > 4 {
		t.Errorf("steady-state device simulation allocates %.1f times per device, want <= 4", allocs)
	}
}

// TestFrozenInvalidateUnreachable pins that no public entry point of a
// shared-program machine reaches the frozen cache's Invalidate tripwire
// (armsim's TestFrozenInvalidatePanics). Under every scheme, with torn NV
// faults on commits and a supply that fails mid-run, it runs
// self-modifying code (text stores and their checkpoint drains must clone
// the cache first), Reboots to another image, and re-arms with
// ResetDevice; every run must complete with the continuous outputs.
func TestFrozenInvalidateUnreachable(t *testing.T) {
	smc := selfModImage()
	img := compileTest(t, testProgram)
	other := compileTest(t, strings.Replace(testProgram, "acc = 42;", "acc = 43;", 1))
	wantImg, _, _ := continuousRun(t, img)
	wantOther, _, _ := continuousRun(t, other)
	for _, name := range scheme.Names() {
		fac, err := scheme.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("a public entry point reached the tripwire: %v", r)
				}
			}()
			machine := func(boot *ccc.Image) *Machine {
				opts := Options{Config: sharedTestConfig(), Scheme: fac, ProgressDefault: 30_000}
				m, err := NewMachineShared(boot, opts, mustBuild(t, boot, opts))
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			torn := 0
			run := func(m *Machine, label string, seed int64, want func([]uint32) bool) {
				t.Helper()
				// Tearing 5% of NV writes drives many torn-commit
				// recoveries through the write hook.
				m.opts.Supply = power.NewSupply(power.Exponential{Mean: 3000, Min: 500}, seed)
				fs := power.NewFaultStream(uint64(seed), 0.05)
				m.SetNVFault(func(int) (bool, uint32) { return fs.Next() })
				st, err := m.Run()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !st.Completed {
					t.Fatalf("%s: run did not complete", label)
				}
				torn += st.TornWrites
				if !want(st.Outputs) {
					t.Errorf("%s: wrong outputs under heavy tearing (%d torn writes, %d degraded boots): %v",
						label, st.TornWrites, st.DegradedBoots, st.Outputs)
				}
			}

			m := machine(smc)
			for seed := int64(1); seed <= 3; seed++ {
				run(m, "self-modifying", seed, func(out []uint32) bool { return outputsEquivalent([]uint32{7, 0x63}, out) })
				if m.cpu.Frozen() {
					t.Fatal("self-modifying code never left the frozen cache")
				}
				m.ResetDevice(nil)
			}

			m = machine(img)
			if err := m.Reboot(other); err != nil {
				t.Fatal(err)
			}
			run(m, "Reboot(other)", 4, func(out []uint32) bool { return slices.Equal(out, wantOther) })
			m.ResetDevice(nil)
			if !m.cpu.Frozen() {
				t.Fatal("ResetDevice did not rejoin the frozen cache")
			}
			run(m, "ResetDevice", 5, func(out []uint32) bool { return slices.Equal(out, wantImg) })
			if torn == 0 {
				t.Error("no NV write was torn; the runs exercise no torn commit")
			}
		})
	}
}
