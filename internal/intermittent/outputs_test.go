package intermittent

import (
	"testing"

	"repro/internal/clank"
	"repro/internal/power"
)

// outputProgram emits a recognizable sequence with real work between
// outputs, so every output has a non-trivial section in front of it.
const outputProgram = `
int state[8];

int main(void) {
	int i;
	int acc = 7;
	for (i = 0; i < 160; i++) {
		acc = acc * 31 + i;
		state[i & 7] = state[i & 7] + acc;
		if ((i & 15) == 15) __output((uint)acc);
	}
	for (i = 0; i < 8; i++) __output((uint)state[i]);
	return 0;
}
`

// outputsExact demands byte-identical output sequences: the output-commit
// watermark makes even the power-fails-before-the-trailing-checkpoint
// window re-emit into a truncated log, so an intermittent run's committed
// outputs equal the continuous run's exactly.
func outputsExact(t *testing.T, cont, inter []uint32) {
	t.Helper()
	if len(cont) != len(inter) {
		t.Fatalf("output count diverges: continuous %d, intermittent %d\ncont:  %v\ninter: %v",
			len(cont), len(inter), cont, inter)
	}
	for i := range cont {
		if cont[i] != inter[i] {
			t.Fatalf("output %d diverges: continuous %#x, intermittent %#x", i, cont[i], inter[i])
		}
	}
}

// TestOutputNotDuplicatedAcrossPowerFailure is the regression test for the
// output-commit rollback bug: store() emits the output word and arms the
// trailing checkpoint, but if power dies before that checkpoint commits,
// the rollback must also discard the uncommitted output. Without the
// checkpointSlot outputs watermark the re-executed store emits the word a
// second time, which a continuous run never does (paper section 3.3).
//
// The adversarial supply kills power inside exactly that window, at every
// output's first emission: the machine is powered generously, and the test
// drains the remaining budget from the OnOutput hook so the instruction
// completes but the trailing checkpoint cannot.
func TestOutputNotDuplicatedAcrossPowerFailure(t *testing.T) {
	img := compileTest(t, outputProgram)
	contOut, _, _ := continuousRun(t, img)
	if len(contOut) == 0 {
		t.Fatal("program produced no outputs")
	}

	m, err := NewMachine(img, Options{
		Config: clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll},
		Supply: power.Always{},
		Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	killed := make(map[int]bool)
	m.mem.OnOutput = func(v uint32) {
		// Position of the word just appended to the output log.
		pos := len(m.mem.Outputs) - 1
		if !killed[pos] {
			killed[pos] = true
			// Power dies between the output store and its trailing
			// checkpoint.
			m.led.Cut()
		}
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("intermittent run: %v", err)
	}
	if !st.Completed {
		t.Fatal("run did not complete")
	}
	if st.Restarts < len(contOut) {
		t.Fatalf("adversarial supply fired only %d restarts for %d outputs", st.Restarts, len(contOut))
	}
	outputsExact(t, contOut, st.Outputs)
}

// TestOutputsExactUnderRandomPowerFailures upgrades the old "bounded
// stuttering" tolerance to exact equality: with the rollback watermark no
// power-failure schedule may duplicate or drop an output.
func TestOutputsExactUnderRandomPowerFailures(t *testing.T) {
	img := compileTest(t, outputProgram)
	contOut, _, _ := continuousRun(t, img)
	for _, seed := range []int64{1, 2, 3, 17, 23} {
		m, err := NewMachine(img, Options{
			Config:          clank.Config{ReadFirst: 4, WriteFirst: 2, WriteBack: 2, Opts: clank.OptAll},
			Supply:          power.NewSupply(power.Exponential{Mean: 4_000, Min: 300}, seed),
			ProgressDefault: 10_000,
			Verify:          true,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !st.Completed {
			t.Fatalf("seed %d: did not complete", seed)
		}
		if st.Restarts == 0 {
			t.Fatalf("seed %d: expected power failures", seed)
		}
		outputsExact(t, contOut, st.Outputs)
	}
}

// TestBracketingMatchesPolicySim pins the output-commit bracketing rule the
// two engines share: a section with classified-but-zero-cycle work ahead of
// an output must pre-bracket in the full system exactly as the trace
// replay does (policysim brackets on SectionAccesses() > 0 too).
func TestBracketingMatchesPolicySim(t *testing.T) {
	img := compileTest(t, outputProgram)
	contOut, _, _ := continuousRun(t, img)
	st := runIntermittent(t, img,
		clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll},
		power.Always{}, 0)
	// Every __output in this program follows real section work, so each
	// must be double-bracketed: N outputs cost 2N ReasonOutput checkpoints.
	want := 2 * len(contOut)
	if got := st.Reasons[clank.ReasonOutput]; got != want {
		t.Errorf("ReasonOutput checkpoints = %d, want %d (2 per output)", got, want)
	}
}
