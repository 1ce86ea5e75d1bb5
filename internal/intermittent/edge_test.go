package intermittent

import (
	"testing"

	"repro/internal/clank"
	"repro/internal/power"
)

// TestMidCheckpointFailureRedoes verifies the double-buffered checkpoint
// protocol: dying inside a checkpoint routine must roll back to the
// previous committed checkpoint and still finish correctly.
func TestMidCheckpointFailureRedoes(t *testing.T) {
	img := compileTest(t, `
int acc[8];
int main(void) {
	int i;
	for (i = 0; i < 120; i++) {
		acc[i & 7] = acc[i & 7] + i;
	}
	{
		int s = 0;
		for (i = 0; i < 8; i++) s += acc[i];
		__output((uint)s);
	}
	return 0;
}
`)
	contOut, _, _ := continuousRun(t, img)
	// Tiny fixed power-on windows force failures at every phase,
	// including inside checkpoint routines (each checkpoint costs 40+
	// cycles against a 450-cycle budget).
	m, err := NewMachine(img, Options{
		Config:          clank.Config{ReadFirst: 2, WriteBack: 1, Opts: clank.OptAll},
		Supply:          power.NewSupply(power.Fixed{Cycles: 450}, 9),
		ProgressDefault: 300,
		Verify:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Completed {
		t.Fatal("did not complete")
	}
	if !outputsEquivalent(contOut, st.Outputs) {
		t.Errorf("outputs diverge: %v vs %v", contOut, st.Outputs)
	}
	if st.Restarts < 10 {
		t.Errorf("expected many restarts with 450-cycle windows, got %d", st.Restarts)
	}
}

// TestManySeedsEquivalence fuzzes power schedules against one program: all
// must produce output streams equivalent to the continuous run.
func TestManySeedsEquivalence(t *testing.T) {
	img := compileTest(t, testProgram)
	contOut, _, _ := continuousRun(t, img)
	cfg := clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll}
	for seed := int64(100); seed < 130; seed++ {
		m, err := NewMachine(img, Options{
			Config:          cfg,
			Supply:          power.NewSupply(power.Exponential{Mean: 7_000, Min: 400}, seed),
			ProgressDefault: 3_000,
			Verify:          true,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !outputsEquivalent(contOut, st.Outputs) {
			t.Fatalf("seed %d: outputs diverge", seed)
		}
	}
}

// TestReasonAccounting checks that every checkpoint is attributed to a
// cause and the counters are consistent.
func TestReasonAccounting(t *testing.T) {
	img := compileTest(t, testProgram)
	st := runIntermittent(t, img,
		clank.Config{ReadFirst: 4, WriteFirst: 2, WriteBack: 1, Opts: clank.OptAll},
		power.NewSupply(power.Exponential{Mean: 30_000, Min: 1000}, 5), 4000)
	attributed := 0
	for _, n := range st.Reasons {
		attributed += n
	}
	// Checkpoints = attributed + the final commit (ReasonNone).
	if attributed >= st.Checkpoints || st.Checkpoints-attributed > st.Restarts+1 {
		t.Errorf("checkpoints %d vs attributed %d (+%d restarts)", st.Checkpoints, attributed, st.Restarts)
	}
	if st.PerfWatchdogs != st.Reasons[clank.ReasonPerfWatchdog] {
		t.Errorf("watchdog counter %d != reason count %d",
			st.PerfWatchdogs, st.Reasons[clank.ReasonPerfWatchdog])
	}
}

// TestUnlimitedBuffersNeverViolate runs with unlimited buffers and checks
// that no pressure checkpoints occur and the reference monitor stays
// silent even with power cycling.
func TestUnlimitedBuffersNeverViolate(t *testing.T) {
	img := compileTest(t, testProgram)
	cfg := clank.Config{ReadFirst: clank.Unlimited, WriteFirst: clank.Unlimited,
		WriteBack: clank.Unlimited}
	m, err := NewMachine(img, Options{
		Config:          cfg,
		Supply:          power.NewSupply(power.Exponential{Mean: 15_000, Min: 800}, 77),
		ProgressDefault: 6_000,
		Verify:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	pressure := st.Reasons[clank.ReasonRFOverflow] + st.Reasons[clank.ReasonWFOverflow] +
		st.Reasons[clank.ReasonAPOverflow] + st.Reasons[clank.ReasonWBOverflow] +
		st.Reasons[clank.ReasonViolation]
	if pressure != 0 {
		t.Errorf("unlimited buffers still hit pressure: %v", st.Reasons)
	}
}

// TestCostModelScalesCheckpointCycles doubles the checkpoint cost and
// expects roughly doubled checkpoint cycles.
func TestCostModelScalesCheckpointCycles(t *testing.T) {
	img := compileTest(t, testProgram)
	run := func(base uint64) Stats {
		costs := clank.DefaultCosts()
		costs.CheckpointBase = base
		m, err := NewMachine(img, Options{
			Config: clank.Config{ReadFirst: 8, WriteFirst: 4, Opts: clank.OptAll},
			Costs:  costs,
			Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(40), run(80)
	if a.Checkpoints != b.Checkpoints {
		t.Fatalf("checkpoint count changed with cost: %d vs %d", a.Checkpoints, b.Checkpoints)
	}
	ratio := float64(b.CkptCycles) / float64(a.CkptCycles)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("doubling the cost scaled cycles by %.2f", ratio)
	}
}

// TestStructProgramSurvivesPowerFailures drives pointer-chasing struct code
// (linked-list building and traversal) across power cycles.
func TestStructProgramSurvivesPowerFailures(t *testing.T) {
	img := compileTest(t, `
struct Item {
	int weight;
	int value;
	struct Item *next;
};

struct Item pool[32];
struct Item *head;

int main(void) {
	uint seed = 5;
	int i;
	int total = 0;
	head = 0;
	for (i = 0; i < 32; i++) {
		struct Item *it = &pool[i];
		seed = seed * 1664525 + 1013904223;
		it->weight = (int)((seed >> 24) & 63);
		it->value = (int)((seed >> 16) & 255);
		// Insert sorted by weight (pointer surgery under power cycling).
		if (!head || head->weight >= it->weight) {
			it->next = head;
			head = it;
		} else {
			struct Item *cur = head;
			while (cur->next && cur->next->weight < it->weight) cur = cur->next;
			it->next = cur->next;
			cur->next = it;
		}
	}
	{
		struct Item *cur = head;
		int prev = -1;
		int ordered = 1;
		while (cur) {
			if (cur->weight < prev) ordered = 0;
			prev = cur->weight;
			total += cur->value;
			cur = cur->next;
		}
		__output((uint)ordered);
		__output((uint)total);
	}
	return 0;
}
`)
	contOut, _, _ := continuousRun(t, img)
	if contOut[0] != 1 {
		t.Fatal("continuous run produced an unsorted list")
	}
	for _, seed := range []int64{3, 21, 77} {
		m, err := NewMachine(img, Options{
			Config:          clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll},
			Supply:          power.NewSupply(power.Exponential{Mean: 1500, Min: 200}, seed),
			ProgressDefault: 600,
			Verify:          true,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !outputsEquivalent(contOut, st.Outputs) {
			t.Errorf("seed %d: outputs %v, want %v", seed, st.Outputs, contOut)
		}
		if st.Restarts == 0 {
			t.Errorf("seed %d: no power failures at 1.5k-cycle mean", seed)
		}
	}
}

// TestBurstyHarvestingAdapts runs under the two-state Markov supply: long
// good stretches punctuated by runs of runt boots. The Progress Watchdog's
// halving must carry the program through the bad regimes.
func TestBurstyHarvestingAdapts(t *testing.T) {
	img := compileTest(t, testProgram)
	contOut, _, _ := continuousRun(t, img)
	for _, seed := range []int64{1, 8, 15} {
		m, err := NewMachine(img, Options{
			Config: clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll},
			Supply: power.NewSupply(&power.Bursty{
				GoodMean: 60_000, BadMean: 900, PStay: 0.85, Min: 250,
			}, seed),
			ProgressDefault: 20_000,
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
			t.Fatalf("seed %d: did not complete under bursty power", seed)
		}
		if !outputsEquivalent(contOut, st.Outputs) {
			t.Errorf("seed %d: outputs diverge", seed)
		}
		t.Logf("seed %d: %d restarts, %d barren boots, %d progress-watchdog checkpoints, overhead %.1f%%",
			seed, st.Restarts, st.BarrenBoots, st.ProgWatchdogs, st.Overhead()*100)
	}
}
