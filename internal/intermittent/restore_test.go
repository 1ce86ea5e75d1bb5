package intermittent

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/mibench"
	"repro/internal/power"
)

// freshMemory is main memory exactly as a fresh load of img leaves it.
func freshMemory(t *testing.T, img *ccc.Image) []byte {
	t.Helper()
	mem := armsim.NewMemory()
	if err := mem.LoadImage(0, img.Bytes); err != nil {
		t.Fatal(err)
	}
	return mem.Bytes()
}

// TestResetDeviceAfterRebootToOtherImage pins ResetDevice after a Reboot
// to a different image on a shared-program machine: the device must come
// back as the constructor image, memory included, with the frozen cache
// attached over it — never the frozen constructor code over the other
// image's bytes.
func TestResetDeviceAfterRebootToOtherImage(t *testing.T) {
	img := compileTest(t, testProgram)
	other := compileTest(t, strings.Replace(testProgram, "acc = 42;", "acc = 43;", 1))
	wantImg, _, _ := continuousRun(t, img)
	wantOther, _, _ := continuousRun(t, other)
	if slices.Equal(wantImg, wantOther) {
		t.Fatal("the two images have the same outputs; the test cannot tell them apart")
	}
	opts := Options{Config: sharedTestConfig(), ProgressDefault: 30_000}
	m, err := NewMachineShared(img, opts, mustBuild(t, img, opts))
	if err != nil {
		t.Fatal(err)
	}
	run := func(label string, want []uint32) {
		t.Helper()
		st, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !slices.Equal(st.Outputs, want) {
			t.Errorf("%s: outputs %v, want %v", label, st.Outputs, want)
		}
	}

	if err := m.Reboot(other); err != nil {
		t.Fatal(err)
	}
	run("after Reboot(other)", wantOther)

	m.ResetDevice(nil)
	if !m.cpu.Frozen() {
		t.Error("ResetDevice did not rejoin the frozen cache")
	}
	if !bytes.Equal(m.mem.Bytes(), freshMemory(t, img)) {
		t.Error("after ResetDevice memory does not hold the constructor image")
	}
	run("after ResetDevice", wantImg)
}

// TestRebootRestoresFreshImage is the restore-equivalence gate: a private
// and a shared machine reboot through crc, sha, crc, the self-modifying
// image and crc again. After each restore memory must equal a fresh load
// of the image, and a run under a fixed supply must give exactly the Stats
// of a freshly constructed machine. The configuration is fixed at
// construction, so every machine runs under crc's text bounds.
func TestRebootRestoresFreshImage(t *testing.T) {
	suite := func(name string) *ccc.Image {
		b, ok := mibench.ByName(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		c, err := mibench.Build(b)
		if err != nil {
			t.Fatal(err)
		}
		return c.Image
	}
	crc, sha, smc := suite("crc"), suite("sha"), selfModImage()
	cfg := sharedTestConfig()
	cfg.TextStart, cfg.TextEnd = crc.TextStart, crc.TextEnd
	opts := Options{Config: cfg, ProgressDefault: 30_000, Supply: power.NewSupply(power.Fixed{Cycles: 20_000}, 1)}

	want := map[*ccc.Image]Stats{}
	for _, img := range []*ccc.Image{crc, sha, smc} {
		m, err := NewMachine(img, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want[img], err = m.Run(); err != nil {
			t.Fatal(err)
		}
	}

	priv, err := NewMachine(crc, opts)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewMachineShared(crc, opts, mustBuild(t, crc, opts))
	if err != nil {
		t.Fatal(err)
	}
	names := map[*ccc.Image]string{crc: "crc", sha: "sha", smc: "selfmod"}
	for _, m := range []*Machine{priv, shared} {
		for i, img := range []*ccc.Image{crc, sha, crc, smc, crc} {
			label := names[img]
			if err := m.Reboot(img); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m.mem.Bytes(), freshMemory(t, img)) {
				t.Errorf("reboot %d (%s, shared %v): memory differs from a fresh load", i, label, m.shared != nil)
			}
			if m.shared != nil && img == crc && !m.cpu.Frozen() {
				t.Errorf("reboot %d: the shared machine did not rejoin the frozen cache", i)
			}
			st, err := m.Run()
			if err != nil {
				t.Fatalf("reboot %d (%s): %v", i, label, err)
			}
			if !reflect.DeepEqual(st, want[img]) {
				t.Errorf("reboot %d (%s, shared %v): Stats diverged from a fresh machine:\n  fresh:    %+v\n  rebooted: %+v",
					i, label, m.shared != nil, want[img], st)
			}
		}
	}
}
