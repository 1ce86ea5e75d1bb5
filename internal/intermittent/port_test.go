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

// portSchemes are the schemes with an access port (scheme.Ported). Each
// is checked against itself boxed, whose every access crosses the Bus.
var portSchemes = []scheme.Factory{scheme.ClankFactory{}, scheme.AlpacaFactory{}, scheme.DiCAFactory{}}

// portRun is everything a run exposes: its Stats and error, its
// retired-instruction count, the reference monitor's tracked-word count
// (-1 without one), and its final NV memory.
type portRun struct {
	st      Stats
	err     string
	insns   uint64
	tracked int
	mem     []uint32
}

func runPortLeg(m *Machine) portRun {
	st, err := m.Run()
	r := portRun{st: st, insns: m.Insns(), tracked: -1}
	if err != nil {
		r.err = err.Error()
	}
	if m.mon != nil {
		r.tracked = m.mon.Tracked()
	}
	for a := uint32(0); a < 256*1024; a += 4 {
		r.mem = append(r.mem, m.MemWord(a))
	}
	return r
}

// diff reports how got, a port leg, differs from want, the Bus leg.
func (got portRun) diff(t *testing.T, leg string, want portRun) {
	t.Helper()
	if got.err != want.err {
		t.Errorf("%s: error %q, Bus path %q", leg, got.err, want.err)
	}
	if !reflect.DeepEqual(got.st, want.st) {
		t.Errorf("%s: Stats diverge from the Bus path:\n  port %+v\n  bus  %+v", leg, got.st, want.st)
	}
	if got.insns != want.insns {
		t.Errorf("%s: %d instructions retired, Bus path %d", leg, got.insns, want.insns)
	}
	if got.tracked != want.tracked {
		t.Errorf("%s: the monitor tracks %d words, Bus path %d", leg, got.tracked, want.tracked)
	}
	for i := range got.mem {
		if got.mem[i] != want.mem[i] {
			t.Errorf("%s: NV word %#x is %#x, Bus path %#x", leg, 4*i, got.mem[i], want.mem[i])
			break
		}
	}
}

// TestAccessPortMatchesBus pins the access port (armsim.CPU.SetAccessPort)
// as invisible. For Clank, Alpaca and DiCA, a machine whose port completes
// certified accesses inside the fused core — Clank's filter hits, dirty
// Write-back words and TEXT literal loads; the privatizer's buffered
// words, TEXT literal loads and unbuffered reads — must match the same
// scheme boxed, whose every access crosses the Bus, byte for byte: Stats
// (checkpoints, reasons, cycles, outputs), the returned error, retired
// instructions, the reference monitor's tracked words and final NV
// memory. It runs on private and shared-program machines, under always-on
// power and two exponential supplies, and again with Verify on, where
// every scheme keeps its port and the port carries the monitor's
// certificates.
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
				for _, fac := range portSchemes {
					for _, verify := range []bool{false, true} {
						leg := fac.Name()
						if verify {
							leg += "/verify"
						}
						t.Run(leg, func(t *testing.T) {
							opts := func(f scheme.Factory) Options {
								return Options{Config: portCfg, Scheme: f, Supply: sup.mk(), ProgressDefault: 25_000, Verify: verify}
							}
							bus, err := NewMachine(img, opts(scheme.Boxed(fac)))
							if err != nil {
								t.Fatal(err)
							}
							if p := bus.cpu.AccessPort(); p.Index != nil || p.Read != nil {
								t.Fatal("a boxed scheme installed an access port")
							}
							want := runPortLeg(bus)
							if want.err != "" || !want.st.Completed {
								t.Fatalf("Bus path: completed %v, error %q", want.st.Completed, want.err)
							}

							private, err := NewMachine(img, opts(fac))
							if err != nil {
								t.Fatal(err)
							}
							prog, err := BuildSharedProgram(img, opts(fac))
							if err != nil {
								t.Fatal(err)
							}
							shared, err := NewMachineShared(img, opts(fac), prog)
							if err != nil {
								t.Fatal(err)
							}
							for _, m := range []struct {
								name string
								m    *Machine
							}{{"private", private}, {"shared", shared}} {
								if p := m.m.cpu.AccessPort(); p.Index == nil || (p.Certs != nil) != verify {
									t.Fatalf("%s: access port installed = %v, with certificates = %v", m.name, p.Index != nil, p.Certs != nil)
								}
								runPortLeg(m.m).diff(t, m.name, want)
							}
							if want.st.Checkpoints == 0 {
								t.Error("no checkpoint was taken; the run exercises no section boundary")
							}
							if sup.name != "always" && want.st.Restarts == 0 {
								t.Error("the supply never failed; the run exercises no rollback")
							}
							if sup.name == "always" {
								requirePortSectionCounts(t, img, fac, verify, want.st.WallCycles)
							}
						})
					}
				}
			})
		}
	}
}

// requirePortSectionCounts stops both paths mid-section, at wall-cycle
// bounds spread over a run of total cycles, and compares the scheme's
// section access count there. Every completed run ends in a commit that
// resets the count, yet the count steers output and TEXT-write bracketing,
// so a port that drops or doubles one access must still fail here.
func requirePortSectionCounts(t *testing.T, img *ccc.Image, fac scheme.Factory, verify bool, total uint64) {
	t.Helper()
	for i := uint64(1); i <= 8; i++ {
		bound := total * i / 9
		var counts [2]int
		var regs [2][16]uint32
		for leg, f := range []scheme.Factory{fac, scheme.Boxed(fac)} {
			m, err := NewMachine(img, Options{Config: portCfg, Scheme: f, ProgressDefault: 25_000, MaxWallCycles: bound, Verify: verify})
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

// TestAccessPortAbsentWhenObserved pins where no port may be installed:
// wherever a FailAfterAccess hook observes accesses, for every scheme; and
// a boxed scheme, which hides its port.
func TestAccessPortAbsentWhenObserved(t *testing.T) {
	img := compileTest(t, testProgram)
	failHook := func(uint32, bool) bool { return false }
	cases := map[string]Options{
		"alpaca/boxed":       {Config: portCfg, Scheme: scheme.Boxed(scheme.AlpacaFactory{}), Verify: true},
		"clank/fail-after":   {Config: portCfg, FailAfterAccess: failHook},
		"alpaca/fail-after":  {Config: portCfg, Scheme: scheme.AlpacaFactory{}, FailAfterAccess: failHook},
		"dica/fail-after":    {Config: portCfg, Scheme: scheme.DiCAFactory{}, FailAfterAccess: failHook},
		"dica/verify+failer": {Config: portCfg, Scheme: scheme.DiCAFactory{}, Verify: true, FailAfterAccess: failHook},
	}
	for name, o := range cases {
		m, err := NewMachine(img, o)
		if err != nil {
			t.Fatal(err)
		}
		if p := m.cpu.AccessPort(); p.Index != nil || p.Read != nil {
			t.Errorf("%s: access port installed", name)
		}
	}
}

// TestAccessPortCarriesMonitorCertificates pins the port a verified
// machine installs: for every scheme it is the scheme's own port (filter
// tag arrays for Clank only, the index-completeness flag for the
// privatizer only) carrying the reference monitor's two certificate
// arrays, and without Verify the same port without certificates.
func TestAccessPortCarriesMonitorCertificates(t *testing.T) {
	img := compileTest(t, testProgram)
	for _, fac := range portSchemes {
		for _, verify := range []bool{false, true} {
			m, err := NewMachine(img, Options{Config: portCfg, Scheme: fac, Verify: verify})
			if err != nil {
				t.Fatal(err)
			}
			p := m.cpu.AccessPort()
			if p.Index == nil {
				t.Fatalf("%s verify=%v: no access port", fac.Name(), verify)
			}
			clank := fac.Name() == "clank"
			if (p.Read != nil) != clank || (p.Write != nil) != clank || (p.Complete != nil) == clank {
				t.Errorf("%s verify=%v: filter tag arrays %v, completeness flag %v", fac.Name(), verify, p.Read != nil, p.Complete != nil)
			}
			if !verify {
				if p.Certs != nil {
					t.Errorf("%s: monitor certificates without a monitor", fac.Name())
				}
				continue
			}
			if c := m.mon.Certificates(); p.Certs != c {
				t.Errorf("%s/verify: port certificates %p, the monitor's %p", fac.Name(), p.Certs, c)
			}
		}
	}
}
