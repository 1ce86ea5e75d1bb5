// Package cli is the one run description the simulator commands share:
// each flag that names part of a run (program, hardware configuration,
// runtime scheme, power supply, NV faults, profile) is declared here once,
// with one type and one meaning, and validated here once. clank-sim and
// clank-fleet take the whole set; clank-explore and clank-experiments take
// the flags they use. Because a fleet device is a single run with derived
// seeds, the flag line is also the replay format: Replay prints the
// clank-sim command that re-runs one fleet device alone.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"

	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/fleet"
	"repro/internal/intermittent"
	"repro/internal/mibench"
	"repro/internal/power"
	"repro/internal/scheme"
)

// Run is one simulated run as its flags describe it.
type Run struct {
	Bench          string
	File           string // the source file Program compiled, if any
	RF, WF, WB, AP int
	Opts           string
	SchemeSpec     string
	MeanOn, MinOn  uint64
	Seed           uint64
	PowerTrace     string
	Watchdog       uint64
	NVFaultRate    float64
	NVFaultSeed    uint64
	CPUProfile     string

	// Resolved by Parse from the flag values.
	Config clank.Config
	Scheme scheme.Factory
	Trace  *power.Trace // nil: the exponential supply
	// progress is the Progress Watchdog's load: a quarter of the mean
	// on-time, or of the trace's mean.
	progress uint64
}

// Default returns the run every flag's default describes.
func Default() *Run {
	return &Run{RF: 16, WF: 8, WB: 4, AP: 4, Opts: "all", SchemeSpec: "clank",
		MeanOn: power.DefaultMeanOn, MinOn: 500, Seed: 1, NVFaultSeed: 1}
}

// flagSet declares every flag on a fresh set, bound to r's fields with
// r's current values as defaults.
func (r *Run) flagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	fs.StringVar(&r.Bench, "bench", r.Bench, "MiBench2 benchmark to run when no source file is given")
	fs.IntVar(&r.RF, "rf", r.RF, "Read-first Buffer entries")
	fs.IntVar(&r.WF, "wf", r.WF, "Write-first Buffer entries")
	fs.IntVar(&r.WB, "wb", r.WB, "Write-back Buffer entries")
	fs.IntVar(&r.AP, "ap", r.AP, "Address Prefix Buffer entries (0 = none)")
	fs.StringVar(&r.Opts, "opts", r.Opts, "policy optimizations: all or none")
	fs.StringVar(&r.SchemeSpec, "scheme", r.SchemeSpec, "runtime scheme: clank, alpaca[:tasklen], dica[:interval]")
	fs.Uint64Var(&r.MeanOn, "mean-on", r.MeanOn, "average power-on time in cycles")
	fs.Uint64Var(&r.MinOn, "min-on", r.MinOn, "minimum power-on time in cycles")
	fs.Uint64Var(&r.Seed, "seed", r.Seed, "power-supply seed; a fleet derives each device's from it")
	fs.StringVar(&r.PowerTrace, "power-trace", r.PowerTrace, "replay recorded on-times from this trace file instead of the random supply (fleet device i starts at sample i)")
	fs.Uint64Var(&r.Watchdog, "watchdog", r.Watchdog, "Performance Watchdog load value (0 = off)")
	fs.Float64Var(&r.NVFaultRate, "nv-fault-rate", r.NVFaultRate, "per-NV-write torn-write probability in [0, 1] (0 = pristine cells)")
	fs.Uint64Var(&r.NVFaultSeed, "nv-fault-seed", r.NVFaultSeed, "torn-write stream seed; a fleet derives each device's from it")
	fs.StringVar(&r.CPUProfile, "cpuprofile", r.CPUProfile, "write a CPU profile of the run to this file")
	return fs
}

// Parse declares the named flags on fs (every flag when names is empty),
// with r's current values as defaults, parses args, and validates and
// resolves the run.
func (r *Run) Parse(fs *flag.FlagSet, args []string, names ...string) error {
	all := r.flagSet()
	if len(names) == 0 {
		all.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	}
	for _, name := range names {
		f := all.Lookup(name)
		fs.Var(f.Value, f.Name, f.Usage)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case !(r.NVFaultRate >= 0 && r.NVFaultRate <= 1):
		return fmt.Errorf("-nv-fault-rate %g: want a probability in [0, 1]", r.NVFaultRate)
	case r.MeanOn == 0:
		return errors.New("-mean-on 0: a device that is never on makes no progress")
	case r.MinOn == 0:
		return errors.New("-min-on 0: want at least one cycle")
	}
	opts, err := clank.ParseOpts(r.Opts)
	if err != nil {
		return fmt.Errorf("-opts: %w", err)
	}
	r.Config = clank.Config{ReadFirst: r.RF, WriteFirst: r.WF, WriteBack: r.WB, AddrPrefix: r.AP, PrefixLowBits: 6, Opts: opts}
	if r.Scheme, err = scheme.Parse(r.SchemeSpec); err != nil {
		return fmt.Errorf("-scheme: %w", err)
	}
	r.progress = r.MeanOn / 4
	if r.PowerTrace != "" {
		r.Trace, err = power.LoadTraceFile(r.PowerTrace)
		if err == nil {
			r.progress = r.Trace.Mean() / 4
		}
	}
	return err
}

// ErrUsage marks a malformed command line: Fatal exits 2 on an error that
// wraps it.
var ErrUsage = errors.New("usage")

// Program compiles the run's program: the one source file args names, or
// else the -bench benchmark. It returns the image and the program's name.
func (r *Run) Program(args []string) (*ccc.Image, string, error) {
	name, src := r.Bench, ""
	switch {
	case len(args) == 1:
		data, err := os.ReadFile(args[0])
		if err != nil {
			return nil, "", err
		}
		r.File, name, src = args[0], args[0], string(data)
	case len(args) == 0 && r.Bench != "":
		b, ok := mibench.ByName(r.Bench)
		if !ok {
			return nil, "", fmt.Errorf("unknown benchmark %q", r.Bench)
		}
		src = b.Source
	default:
		return nil, "", fmt.Errorf("%w: %s [flags] prog.c | -bench NAME", ErrUsage, filepath.Base(os.Args[0]))
	}
	img, err := ccc.Compile(src)
	return img, name, err
}

// Machine builds clank-sim's single machine for img: the reference
// monitor on, the supply and the NV-fault stream installed.
func (r *Run) Machine(img *ccc.Image) (*intermittent.Machine, error) {
	var supply power.Source = power.NewSupply(power.Exponential{Mean: r.MeanOn, Min: r.MinOn}, int64(r.Seed))
	if r.Trace != nil {
		supply = r.Trace
	}
	m, err := intermittent.NewMachine(img, intermittent.Options{
		Config:          r.Config,
		Scheme:          r.Scheme,
		Supply:          supply,
		PerfWatchdog:    r.Watchdog,
		ProgressDefault: r.progress,
		Verify:          true,
	})
	if err == nil && r.NVFaultRate > 0 {
		fs := power.NewFaultStream(r.NVFaultSeed, r.NVFaultRate)
		m.SetNVFault(func(int) (bool, uint32) { return fs.Next() })
	}
	return m, err
}

// Fleet returns the fleet options the run describes; the caller sets the
// population, the workers and Verify.
func (r *Run) Fleet() fleet.Options {
	return fleet.Options{
		Seed:            r.Seed,
		Config:          r.Config,
		Scheme:          r.Scheme,
		MeanOn:          r.MeanOn,
		MinOn:           r.MinOn,
		Trace:           r.Trace,
		PerfWatchdog:    r.Watchdog,
		NVFaultRate:     r.NVFaultRate,
		NVFaultSeed:     r.NVFaultSeed,
		ProgressDefault: r.progress,
	}
}

// Replay is the clank-sim command line that re-runs device dev of the
// fleet r describes: every flag whose value differs from its default, with
// the device's supply and NV-fault seeds, then the source file. It does
// not cover a -power-trace fleet (clank-sim has no trace offset) or
// clank-fleet's -exempt.
func (r *Run) Replay(dev int) string {
	d := *r
	d.Seed, d.CPUProfile = fleet.DeviceSeed(r.Seed, dev), ""
	if r.NVFaultRate > 0 {
		d.NVFaultSeed = fleet.DeviceFaultSeed(r.NVFaultSeed, dev)
	}
	def, line := Default().flagSet(), []string{"clank-sim"}
	d.flagSet().VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); v != def.Lookup(f.Name).DefValue {
			line = append(line, "-"+f.Name, v)
		}
	})
	if r.File != "" {
		line = append(line, r.File)
	}
	return strings.Join(line, " ")
}

// StopProfile ends the -cpuprofile recording, if one is running. Fatal
// calls it too, so a run that fails still leaves a complete profile. It is
// package state because the CPU profile itself is process-wide.
var StopProfile = func() {}

// Start is a command's whole setup: it declares the named flags (every
// flag when names is empty) on the command line, parses and validates
// os.Args, and starts the -cpuprofile recording. Any error exits through
// Fatal. The command's own flags must be declared before it is called.
func (r *Run) Start(names ...string) {
	if err := r.Parse(flag.CommandLine, os.Args[1:], names...); err != nil {
		Fatal(err)
	}
	if r.CPUProfile == "" {
		return
	}
	f, err := os.Create(r.CPUProfile)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		Fatal(err)
	}
	StopProfile = func() {
		StopProfile = func() {}
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
		}
	}
}

// Fatal stops the profile, prints err under the command's name and exits:
// 2 on a usage error, 1 otherwise.
func Fatal(err error) {
	StopProfile()
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	if errors.Is(err, ErrUsage) {
		os.Exit(2)
	}
	os.Exit(1)
}
