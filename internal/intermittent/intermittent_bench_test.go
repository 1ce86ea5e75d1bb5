package intermittent

import (
	"sync"
	"testing"

	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/power"
)

var benchImgOnce struct {
	sync.Once
	img *ccc.Image
	err error
}

func benchImage(b *testing.B) *ccc.Image {
	b.Helper()
	benchImgOnce.Do(func() {
		benchImgOnce.img, benchImgOnce.err = ccc.Compile(testProgram)
	})
	if benchImgOnce.err != nil {
		b.Fatalf("compile: %v", benchImgOnce.err)
	}
	return benchImgOnce.img
}

// BenchmarkIntermittentRun is the full-system hot path: one complete
// intermittent execution of the standard read-modify-write workload under
// harvested power — CPU (predecoded dispatch), Clank CAMs, checkpoint
// drains, and power-cycle restarts together. One machine, and therefore one
// CPU and one decode cache, serves all the power cycles within a run.
func BenchmarkIntermittentRun(b *testing.B) {
	img := benchImage(b)
	cfg := clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll}
	b.ReportAllocs()
	var wall, boots uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := NewMachine(img, Options{
			Config:          cfg,
			Supply:          power.NewSupply(power.Exponential{Mean: 20_000, Min: 500}, 7),
			ProgressDefault: 10_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !st.Completed {
			b.Fatal("run did not complete")
		}
		wall += st.WallCycles
		boots += uint64(st.Restarts)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(wall), "ns/cycle")
	b.ReportMetric(float64(boots)/float64(b.N), "boots/run")
}

// TestRebootsDoNotAllocate pins the power-cycle path to zero steady-state
// allocations: a run with hundreds of reboots must allocate no more than a
// continuous run of the same program (one CPU and one decode cache serve
// the whole run; reboots only roll state back). A regression here means a
// per-boot allocation crept into restart/restore. The Verify leg holds the
// reference monitor's per-section Reset, certificates included, to the
// same bound.
func TestRebootsDoNotAllocate(t *testing.T) {
	img, err := ccc.Compile(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll}
	for _, verify := range []bool{false, true} {
		run := func(supply func() power.Source) (allocs float64, boots int) {
			allocs = testing.AllocsPerRun(3, func() {
				m, err := NewMachine(img, Options{
					Config:          cfg,
					Supply:          supply(),
					ProgressDefault: 10_000,
					Verify:          verify,
				})
				if err != nil {
					t.Fatal(err)
				}
				st, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !st.Completed {
					t.Fatal("run did not complete")
				}
				boots = st.Restarts
			})
			return allocs, boots
		}

		continuousAllocs, b0 := run(func() power.Source { return power.Always{} })
		if b0 != 0 {
			t.Fatalf("always-on run rebooted %d times", b0)
		}
		intermittentAllocs, boots := run(func() power.Source {
			return power.NewSupply(power.Fixed{Cycles: 1500}, 5)
		})
		if boots < 20 {
			t.Fatalf("expected dozens of reboots with 1500-cycle windows, got %d", boots)
		}
		delta := intermittentAllocs - continuousAllocs
		if delta >= float64(boots)/4 {
			t.Errorf("verify=%v: reboots allocate: %v extra allocs over %d boots (continuous %v, intermittent %v)",
				verify, delta, boots, continuousAllocs, intermittentAllocs)
		}
	}
}
