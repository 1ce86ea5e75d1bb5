package intermittent

import (
	"fmt"
	"testing"

	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/power"
	"repro/internal/scheme"
)

// conformanceSchemes is the battery's scheme roster: every registered
// backend by name — a fourth scheme gets the whole suite for free the
// moment it registers — plus a boxed Clank, which hides the concrete
// *scheme.Clank and so forces the machine onto its generic interface path,
// differentially pinning that path against the devirtualized one.
func conformanceSchemes(t *testing.T) map[string]scheme.Factory {
	t.Helper()
	facs := make(map[string]scheme.Factory)
	for _, name := range scheme.Names() {
		f, err := scheme.Parse(name)
		if err != nil {
			t.Fatalf("registry lists %q but Parse rejects it: %v", name, err)
		}
		facs[name] = f
	}
	facs["clank-boxed"] = scheme.Boxed(scheme.ClankFactory{})
	return facs
}

var conformanceCfg = clank.Config{ReadFirst: 8, WriteFirst: 4, WriteBack: 2, Opts: clank.OptAll}

// TestSchemeConformance runs one shared behavioral suite against every
// runtime scheme: whatever the commit policy — violation-driven
// checkpoints, task boundaries, differential intervals — the machine's
// external contract is identical: exact outputs, exact final memory, a
// deterministic replayable run, and no per-boot allocations.
func TestSchemeConformance(t *testing.T) {
	img := compileTest(t, outputProgram)
	contOut, contCycles, contData := continuousRun(t, img)

	for name, fac := range conformanceSchemes(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("output-equivalence", func(t *testing.T) {
				for _, seed := range []int64{1, 3, 17} {
					m, err := NewMachine(img, Options{
						Config:          conformanceCfg,
						Scheme:          fac,
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
					if st.UsefulCycles != contCycles {
						t.Errorf("seed %d: useful cycles %d != continuous %d", seed, st.UsefulCycles, contCycles)
					}
					got := m.dataSnapshot(img)
					for i := range contData {
						if got[i] != contData[i] {
							t.Fatalf("seed %d: data byte %#x differs: %#x vs %#x",
								seed, img.DataStart+uint32(i), got[i], contData[i])
						}
					}
				}
			})

			t.Run("output-watermark-dedup", func(t *testing.T) {
				// Kill power between every output's first emission and its
				// trailing checkpoint: without the committed watermark the
				// re-executed store would emit the word twice.
				m, err := NewMachine(img, Options{
					Config: conformanceCfg,
					Scheme: fac,
					Supply: power.Always{},
					Verify: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				killed := make(map[int]bool)
				m.mem.OnOutput = func(v uint32) {
					pos := len(m.mem.Outputs) - 1
					if !killed[pos] {
						killed[pos] = true
						m.led.Cut()
					}
				}
				st, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !st.Completed {
					t.Fatal("run did not complete")
				}
				if st.Restarts < len(contOut) {
					t.Fatalf("adversarial supply fired only %d restarts for %d outputs", st.Restarts, len(contOut))
				}
				outputsExact(t, contOut, st.Outputs)
			})

			t.Run("reboot-idempotence", func(t *testing.T) {
				// The same device re-armed (ResetDevice) with an identical
				// supply must replay the identical run: scheme state fully
				// re-derives from the committed record, nothing leaks
				// across device lifetimes.
				supply := func() power.Source {
					return power.NewSupply(power.Exponential{Mean: 4_000, Min: 300}, 23)
				}
				m, err := NewMachine(img, Options{
					Config:          conformanceCfg,
					Scheme:          fac,
					Supply:          supply(),
					ProgressDefault: 10_000,
					Verify:          true,
				})
				if err != nil {
					t.Fatal(err)
				}
				first, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				m.ResetDevice(supply())
				second, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				a := fmt.Sprintf("%+v", first)
				b := fmt.Sprintf("%+v", second)
				if a != b {
					t.Errorf("replayed device diverged:\nfirst:  %s\nsecond: %s", a, b)
				}
				outputsExact(t, contOut, second.Outputs)
			})

			t.Run("zero-alloc-steady-state", func(t *testing.T) {
				// The longer program yields enough boots that one-time
				// warm-up growth (map buckets, scratch slices) amortizes
				// away while a genuine per-boot allocation still trips the
				// boots/4 bound.
				longImg := compileTest(t, testProgram)
				run := func(supply func() power.Source) (allocs float64, boots int) {
					allocs = testing.AllocsPerRun(3, func() {
						m, err := NewMachine(longImg, Options{
							Config:          conformanceCfg,
							Scheme:          fac,
							Supply:          supply(),
							ProgressDefault: 10_000,
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
				if boots < 10 {
					t.Fatalf("expected many reboots with 1500-cycle windows, got %d", boots)
				}
				delta := intermittentAllocs - continuousAllocs
				if delta >= float64(boots)/4 {
					t.Errorf("reboots allocate: %v extra allocs over %d boots (continuous %v, intermittent %v)",
						delta, boots, continuousAllocs, intermittentAllocs)
				}
			})
		})
	}
}

// TestSchemeCheckpointReasons pins each scheme to its signature commit
// trigger: Alpaca commits at task boundaries, DiCA at wall-clock
// intervals, and neither reason ever appears in a Clank run.
func TestSchemeCheckpointReasons(t *testing.T) {
	img := compileTest(t, outputProgram)
	// Output-bracketing commits re-base the schedules, so the task length /
	// interval must be shorter than the gap between outputs for the
	// signature reasons to fire.
	cases := []struct {
		fac    scheme.Factory
		reason clank.Reason
	}{
		{scheme.AlpacaFactory{TaskLen: 64}, clank.ReasonTaskBoundary},
		{scheme.DiCAFactory{Interval: 64}, clank.ReasonCommitInterval},
	}
	for _, tc := range cases {
		st := mustRunScheme(t, img, tc.fac)
		if st.Reasons[tc.reason] == 0 {
			t.Errorf("%s: no %v commits in %v", tc.fac.Name(), tc.reason, st.Reasons)
		}
	}
	st := mustRunScheme(t, img, scheme.ClankFactory{})
	if n := st.Reasons[clank.ReasonTaskBoundary] + st.Reasons[clank.ReasonCommitInterval]; n != 0 {
		t.Errorf("clank run carries scheme-specific reasons: %v", st.Reasons)
	}
}

// TestSchemeBufferOverflowSplits forces the privatization buffer to fill —
// the working set is larger than the buffer — and requires the run to
// still complete exactly, with the early-split reason on record.
func TestSchemeBufferOverflowSplits(t *testing.T) {
	img := compileTest(t, testProgram) // 16-word array + state: outgrows 16 words
	contOut, _, _ := continuousRun(t, img)
	for _, fac := range []scheme.Factory{
		scheme.AlpacaFactory{TaskLen: 1 << 40, BufWords: 1}, // floored to minBufWords
		scheme.DiCAFactory{Interval: 1 << 40, BufWords: 1},
	} {
		m, err := NewMachine(img, Options{
			Config:          conformanceCfg,
			Scheme:          fac,
			Supply:          power.NewSupply(power.Exponential{Mean: 20_000, Min: 500}, 9),
			ProgressDefault: 10_000,
			Verify:          true,
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", fac.Name(), err)
		}
		if !st.Completed {
			t.Fatalf("%s: did not complete", fac.Name())
		}
		outputsExact(t, contOut, st.Outputs)
		if st.Reasons[clank.ReasonWBOverflow] == 0 {
			t.Errorf("%s: tiny buffer never overflowed: %v", fac.Name(), st.Reasons)
		}
	}
}

func mustRunScheme(t *testing.T, img *ccc.Image, fac scheme.Factory) Stats {
	t.Helper()
	m, err := NewMachine(img, Options{
		Config:          conformanceCfg,
		Scheme:          fac,
		Supply:          power.NewSupply(power.Exponential{Mean: 20_000, Min: 500}, 5),
		ProgressDefault: 10_000,
		Verify:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("%s: %v", fac.Name(), err)
	}
	if !st.Completed {
		t.Fatalf("%s: did not complete", fac.Name())
	}
	return st
}
