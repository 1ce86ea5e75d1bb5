package verify

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/clank"
)

// TestExhaustiveBoundedDeep pushes the bounded proof one pattern-length
// past the historical TestExhaustiveBounded bound (n=5): the symmetry-
// pruned parallel sweep covers n=6 over the full standard configuration
// family in wall-clock comparable to the old naive n=5 run.
func TestExhaustiveBoundedDeep(t *testing.T) {
	n := 6
	if testing.Short() {
		n = 5
	}
	s := &Sweep{N: n, Words: 2, Vals: 2, Canonical: true}
	stats, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("deep sweep n=%d: %d canonical patterns, %d runs, %d shards, %d config groups",
		n, stats.Patterns, stats.Runs, stats.Shards, stats.Groups)
}

// TestSweepDeterministicAcrossWorkers reruns a failing sweep at several
// pool sizes: the shard→pattern mapping is fixed, so the complete finding
// list (coordinates included) must be identical regardless of scheduling.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	render := func(fs []Finding) []string {
		out := make([]string, len(fs))
		for i, f := range fs {
			out[i] = fmt.Sprintf("%d/%d %v %v %v", f.Shard, f.Seq, f.Pattern, f.Config, f.Schedule)
		}
		return out
	}
	var want []string
	for _, workers := range []int{1, 2, 7} {
		s := &Sweep{
			N: 4, Words: 2, Vals: 2,
			Configs:    []clank.Config{{ReadFirst: 1}, {ReadFirst: 2, WriteFirst: 1}},
			Canonical:  true,
			Workers:    workers,
			MakeCheck:  func() CheckFunc { return buggyChecker().Check },
			CollectAll: true,
			NoShrink:   true,
		}
		stats, err := s.Run()
		if err == nil {
			t.Fatal("injected bug produced no findings")
		}
		got := render(stats.Findings)
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d findings, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: finding %d = %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSweepShrunkMinimalCounterexample is the acceptance check for
// counterexample shrinking: a detector that skips the idempotency trap
// must yield, in the sweep's failure message, the minimal reproducer —
// the two-op WAR pattern on one word, continuous power, the one-entry
// Read-first configuration.
func TestSweepShrunkMinimalCounterexample(t *testing.T) {
	s := &Sweep{
		N: 5, Words: 2, Vals: 2,
		Canonical: true,
		MakeCheck: func() CheckFunc { return buggyChecker().Check },
	}
	_, err := s.Run()
	if err == nil {
		t.Fatal("injected bug produced no counterexample")
	}
	var ce *CounterExample
	if !errors.As(err, &ce) {
		t.Fatalf("sweep error is %T, want *CounterExample: %v", err, err)
	}
	if !ce.Shrunk {
		t.Fatalf("counterexample not shrunk: %v", err)
	}
	if got := ce.Pattern.String(); got != "[R0 W0=1]" {
		t.Errorf("shrunk pattern = %v, want [R0 W0=1]", got)
	}
	if ce.Words != 1 {
		t.Errorf("shrunk words = %d, want 1", ce.Words)
	}
	if ce.Schedule != FailAt(-1) {
		t.Errorf("shrunk schedule = %v, want none (continuous power)", ce.Schedule)
	}
	want := clank.Config{ReadFirst: 1}
	if fmt.Sprint(ce.Config) != fmt.Sprint(want) {
		t.Errorf("shrunk config = %+v, want %+v", ce.Config, want)
	}
	if ce.Err == nil {
		t.Error("shrunk counterexample carries no underlying verdict")
	}
	t.Logf("failure message: %v", err)
}

// TestSweepMatchesEnumerateUnpruned cross-checks the sharded sweep against
// the plain single-threaded enumeration on a healthy detector: same
// pattern count, no findings.
func TestSweepMatchesEnumerateUnpruned(t *testing.T) {
	const n, words, vals = 4, 2, 2
	naive := 0
	if err := EnumeratePatterns(n, words, vals, func(Pattern) error { naive++; return nil }); err != nil {
		t.Fatal(err)
	}
	s := &Sweep{
		N: n, Words: words, Vals: vals,
		Configs:   []clank.Config{{ReadFirst: 2, WriteFirst: 1}},
		Schedules: []Schedule{FailAt(-1), FailAt(2)},
		Workers:   3,
	}
	stats, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if int(stats.Patterns) != naive {
		t.Fatalf("sweep visited %d patterns, enumeration has %d", stats.Patterns, naive)
	}
	if want := int64(naive * 2); stats.Runs != want {
		t.Fatalf("sweep ran %d checks, want %d", stats.Runs, want)
	}
}

// BenchmarkSweep measures sweep throughput (patterns/sec and runs/sec feed
// BENCH_verify.json) on the canonical n=5 space over the standard family.
func BenchmarkSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := &Sweep{N: 5, Words: 2, Vals: 2, Canonical: true}
		stats, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(stats.Patterns), "patterns/op")
		b.ReportMetric(float64(stats.Runs), "runs/op")
	}
}
