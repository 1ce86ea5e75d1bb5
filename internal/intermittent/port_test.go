package intermittent

import (
	"reflect"
	"testing"

	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/mibench"
	"repro/internal/power"
	"repro/internal/scheme"
)

// portKernels exercise every kind of access the port serves: word, byte
// and halfword loads and stores (aes and rc4 store bytes), PUSH/POP and
// LDM/STM bursts on every call, and TEXT literal-pool loads.
var portKernels = []string{"crc", "aes", "rc4", "sha"}

var portCfg = clank.Config{ReadFirst: 16, WriteFirst: 8, WriteBack: 4, AddrPrefix: 4, PrefixLowBits: 6, Opts: clank.OptAll}

// portRun is everything a run exposes: its Stats, its retired-instruction
// count, and its final NV memory.
type portRun struct {
	st    Stats
	insns uint64
	mem   []uint32
}

func runPortLeg(t *testing.T, m *Machine) portRun {
	t.Helper()
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Completed {
		t.Fatal("run did not complete")
	}
	r := portRun{st: st, insns: m.Insns()}
	for a := uint32(0); a < 256*1024; a += 4 {
		r.mem = append(r.mem, m.MemWord(a))
	}
	return r
}

// TestAccessPortMatchesBus pins the access port (armsim.CPU.SetAccessPort)
// as invisible: the devirtualized Clank machine, which completes filter
// hits and TEXT literal loads inside the fused core, must match a boxed
// Clank, whose every access crosses the Bus, byte for byte — Stats
// (checkpoints, reasons, cycles, outputs), retired instructions and final
// NV memory — on private and shared-program machines, under always-on
// power and two exponential supplies.
func TestAccessPortMatchesBus(t *testing.T) {
	supplies := []struct {
		name string
		mk   func() power.Source
	}{
		{"always", func() power.Source { return power.Always{} }},
		{"exp100k", func() power.Source { return power.NewSupply(power.Exponential{Mean: 100_000, Min: 500}, 1) }},
		{"exp20k", func() power.Source { return power.NewSupply(power.Exponential{Mean: 20_000, Min: 500}, 2) }},
	}
	for _, name := range portKernels {
		b, ok := mibench.ByName(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		img, err := ccc.Compile(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		for _, sup := range supplies {
			t.Run(name+"/"+sup.name, func(t *testing.T) {
				opts := func(fac scheme.Factory) Options {
					return Options{Config: portCfg, Scheme: fac, Supply: sup.mk(), ProgressDefault: 25_000}
				}
				bus, err := NewMachine(img, opts(scheme.Boxed(scheme.ClankFactory{})))
				if err != nil {
					t.Fatal(err)
				}
				if bus.cpu.AccessPort().Read != nil {
					t.Fatal("boxed Clank installed an access port")
				}
				want := runPortLeg(t, bus)

				private, err := NewMachine(img, opts(nil))
				if err != nil {
					t.Fatal(err)
				}
				prog, err := BuildSharedProgram(img, opts(nil))
				if err != nil {
					t.Fatal(err)
				}
				shared, err := NewMachineShared(img, opts(nil), prog)
				if err != nil {
					t.Fatal(err)
				}
				for _, leg := range []struct {
					name string
					m    *Machine
				}{{"private", private}, {"shared", shared}} {
					if leg.m.cpu.AccessPort().Read == nil {
						t.Fatalf("%s: devirtualized Clank without Verify has no access port", leg.name)
					}
					got := runPortLeg(t, leg.m)
					if !reflect.DeepEqual(got.st, want.st) {
						t.Errorf("%s: Stats diverge from the Bus path:\n  port %+v\n  bus  %+v", leg.name, got.st, want.st)
					}
					if got.insns != want.insns {
						t.Errorf("%s: %d instructions retired, Bus path %d", leg.name, got.insns, want.insns)
					}
					for i := range got.mem {
						if got.mem[i] != want.mem[i] {
							t.Errorf("%s: NV word %#x is %#x, Bus path %#x", leg.name, 4*i, got.mem[i], want.mem[i])
							break
						}
					}
				}
				if want.st.Checkpoints == 0 {
					t.Error("no checkpoint was taken; the run exercises no section boundary")
				}
				if sup.name != "always" && want.st.Restarts == 0 {
					t.Error("the supply never failed; the run exercises no rollback")
				}
				if sup.name == "always" {
					requirePortSectionCounts(t, img, want.st.WallCycles)
				}
			})
		}
	}
}

// requirePortSectionCounts stops both paths mid-section, at wall-cycle
// bounds spread over a run of total cycles, and compares the detector's
// section access count there. Every completed run ends in a commit that
// resets the count, yet the count steers output and TEXT-write bracketing,
// so a port that drops or doubles one access must still fail here.
func requirePortSectionCounts(t *testing.T, img *ccc.Image, total uint64) {
	t.Helper()
	for i := uint64(1); i <= 8; i++ {
		bound := total * i / 9
		var counts [2]int
		var regs [2][16]uint32
		for leg, fac := range []scheme.Factory{nil, scheme.Boxed(scheme.ClankFactory{})} {
			m, err := NewMachine(img, Options{Config: portCfg, Scheme: fac, ProgressDefault: 25_000, MaxWallCycles: bound})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err == nil {
				t.Fatalf("run finished inside the %d-cycle bound", bound)
			}
			counts[leg], regs[leg] = m.sch.SectionAccesses(), m.cpu.Regs()
		}
		if counts[0] != counts[1] || regs[0] != regs[1] {
			t.Errorf("stopped at %d cycles: port path has %d section accesses, Bus path %d (registers equal: %v)",
				bound, counts[0], counts[1], regs[0] == regs[1])
		}
	}
}

// TestAccessPortAbsentWhenObserved pins where the port must not be
// installed: wherever something besides the detector observes accesses
// (the reference monitor, a FailAfterAccess hook) or the scheme has no
// Clank filter to share (Alpaca, DiCA).
func TestAccessPortAbsentWhenObserved(t *testing.T) {
	img := compileTest(t, testProgram)
	cases := map[string]Options{
		"verify":            {Config: portCfg, Verify: true},
		"fail-after-access": {Config: portCfg, FailAfterAccess: func(uint32, bool) bool { return false }},
	}
	for _, name := range []string{"alpaca", "dica"} {
		fac, err := scheme.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = Options{Config: portCfg, Scheme: fac}
	}
	for name, o := range cases {
		m, err := NewMachine(img, o)
		if err != nil {
			t.Fatal(err)
		}
		if m.cpu.AccessPort().Read != nil {
			t.Errorf("%s: access port installed", name)
		}
	}
}
