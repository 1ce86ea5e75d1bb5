package cli

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/armsim"
	"repro/internal/fleet"
)

// parse runs args through a fresh shared FlagSet, as every command does.
func parse(args ...string) (*Run, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	r := Default()
	return r, r.Parse(fs, args)
}

// TestParseValidates pins the shared validation: each bad value is an
// error that names its flag, and the edge values that make sense pass.
func TestParseValidates(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  string // "" = valid
	}{
		{nil, ""},
		{[]string{"-nv-fault-rate", "0"}, ""},
		{[]string{"-nv-fault-rate", "1"}, ""},
		{[]string{"-nv-fault-rate", "0.003", "-min-on", "1", "-mean-on", "1"}, ""},
		{[]string{"-nv-fault-rate", "-1"}, "-nv-fault-rate"},
		{[]string{"-nv-fault-rate", "1.5"}, "-nv-fault-rate"},
		{[]string{"-nv-fault-rate", "NaN"}, "-nv-fault-rate"},
		{[]string{"-mean-on", "0"}, "-mean-on"},
		{[]string{"-min-on", "0"}, "-min-on"},
		{[]string{"-seed", "-1"}, "-seed"},
		{[]string{"-opts", "All"}, "-opts"},
		{[]string{"-scheme", "ratchet"}, "-scheme"},
		{[]string{"-power-trace", "no-such.trace"}, "no-such.trace"},
	} {
		_, err := parse(tc.args...)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: unexpected error %v", tc.args, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: error %v, want one naming %s", tc.args, err, tc.err)
		}
	}
}

// TestReplayArgs pins the replay line's shape: only flags off their
// defaults, the device's derived seeds, and the source file last.
func TestReplayArgs(t *testing.T) {
	r, err := parse("-rf", "8", "-nv-fault-rate", "0.003", "-cpuprofile", "cpu.prof")
	if err != nil {
		t.Fatal(err)
	}
	r.File = "prog.c"
	got := r.Replay(5)
	want := "clank-sim -nv-fault-rate 0.003 -nv-fault-seed 4550974109491639668 -rf 8 -seed 14072917602864530048 prog.c"
	if got != want {
		t.Errorf("replay line\n got %s\nwant %s", got, want)
	}
}

// TestReplayReproducesFleetDevice is the replay contract end to end: a
// crc fleet under torn NV writes, then each chosen device's replay line
// parsed through the shared FlagSet and run on clank-sim's path (one
// machine, reference monitor on) must reproduce the device's result.
func TestReplayReproducesFleetDevice(t *testing.T) {
	fleetRun, err := parse("-bench", "crc", "-nv-fault-rate", "0.003")
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := fleetRun.Program(nil)
	if err != nil {
		t.Fatal(err)
	}
	fo := fleetRun.Fleet()
	fo.Devices, fo.Workers = 12, 2
	rep, err := fleet.Run(img, fo)
	if err != nil {
		t.Fatal(err)
	}

	cont := armsim.NewMachine()
	if err := cont.Boot(img.Bytes); err != nil {
		t.Fatal(err)
	}
	if _, err := cont.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}

	// Every device that tore a write, plus the first devices, for at
	// least three.
	var devs []int
	for _, d := range rep.Results {
		if d.TornWrites > 0 || len(devs) < 3 {
			devs = append(devs, d.Device)
		}
	}
	torn := 0
	for _, dev := range devs {
		want := rep.Results[dev]
		if want.TornWrites > 0 {
			torn++
		}
		line := fleetRun.Replay(dev)
		args := strings.Fields(line)
		if args[0] != "clank-sim" {
			t.Fatalf("device %d: replay line %q does not run clank-sim", dev, line)
		}
		r, err := parse(args[1:]...)
		if err != nil {
			t.Fatalf("device %d: %q: %v", dev, line, err)
		}
		img, _, err := r.Program(nil)
		if err != nil {
			t.Fatal(err)
		}
		m, err := r.Machine(img)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("device %d: %q: %v", dev, line, err)
		}
		got := fleet.DeviceResult{
			Device:          dev,
			Boots:           st.Restarts,
			Checkpoints:     st.Checkpoints,
			TornWrites:      st.TornWrites,
			DetectedCorrupt: st.DetectedCorrupt,
			CommitWrites:    st.CommitWrites,
			UsefulCycles:    st.UsefulCycles,
			WallCycles:      st.WallCycles,
			CkptCycles:      st.CkptCycles,
			RestartCycles:   st.RestartCycles,
			ReexecCycles:    st.ReexecCycles,
			Outputs:         len(st.Outputs),
			OutputsMatch:    st.Completed && slices.Equal(st.Outputs, cont.Mem.Outputs),
		}
		w := fleet.DeviceResult{
			Device:          dev,
			Boots:           want.Boots,
			Checkpoints:     want.Checkpoints,
			TornWrites:      want.TornWrites,
			DetectedCorrupt: want.DetectedCorrupt,
			CommitWrites:    want.CommitWrites,
			UsefulCycles:    want.UsefulCycles,
			WallCycles:      want.WallCycles,
			CkptCycles:      want.CkptCycles,
			RestartCycles:   want.RestartCycles,
			ReexecCycles:    want.ReexecCycles,
			Outputs:         want.Outputs,
			OutputsMatch:    want.OutputsMatch,
		}
		if got != w {
			t.Errorf("device %d: %q\n replay %+v\n  fleet %+v", dev, line, got, w)
		}
	}
	t.Logf("replayed devices %v, %d with torn writes", devs, torn)
	if len(devs) < 3 || torn == 0 {
		t.Fatalf("replayed devices %v, %d with torn writes: want at least 3 and at least one torn", devs, torn)
	}
}
