package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// lastResult runs one tiny invocation and decodes its result line.
func lastResult(t *testing.T, cfg config) (result, string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatalf("%s trace=%v: %v\n%s", cfg.workload, cfg.trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", cfg.workload, err, out.String())
	}
	return res, out.String()
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload:  workload,
		seed:      3,
		tiny:      true,
		trace:     trace,
		spansPath: filepath.Join(t.TempDir(), "spans.json"),
		corruptOp: -1,
	}
}

// manifest is BENCHMARK.json: exactly the keys its contract names.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestEveryMetricPrinted runs each workload at its tiny size, untraced and
// traced, and checks that exactly the metrics BENCHMARK.json names are
// printed, each with its unit, and that no op failed.
func TestEveryMetricPrinted(t *testing.T) {
	m := readManifest(t)
	e2e := map[string]string{}
	for _, d := range m.EndToEnd {
		e2e[d.Name] = d.Unit
	}
	layer := map[string]string{}
	for _, d := range m.PerLayer {
		layer[d.Name] = d.Unit
	}
	for _, wl := range m.Workloads {
		for _, trace := range []bool{false, true} {
			res, out := lastResult(t, tinyConfig(t, wl.Name, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d/%d failed\n%s", wl.Name, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			want := e2e
			if trace {
				want = layer
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl.Name, trace, name, got, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", wl.Name, trace, name)
				}
			}
			if !trace {
				for name, v := range res.Metrics {
					if v.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", wl.Name, name)
					}
				}
			}
		}
	}
}

// TestCorruptedOutputCountsAsFailed corrupts one op's output per workload
// and expects the checks to count it.
func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	for _, name := range allWorkloads {
		cfg := tinyConfig(t, name, false)
		cfg.corruptOp = 0
		res, out := lastResult(t, cfg)
		if res.Correct || res.Failed < 1 {
			t.Errorf("%s: corrupted op 0 gave correct %v, %d failed\n%s", name, res.Correct, res.Failed, out)
		}
	}
}

// TestManifest checks BENCHMARK.json against its contract's limits and
// that layers.json describes the same metrics with the same units.
func TestManifest(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or repeated", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %s: unit %q is malformed", name, unit)
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !setup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, d := range m.PerLayer {
		check(d.Name, d.Unit)
	}
	for _, w := range m.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is longer than a 200-character line", w.Name)
		}
	}

	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var l struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
			Moves, On  []string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatalf("layers.json: %v", err)
	}
	units := map[string]string{}
	for _, d := range m.EndToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range m.PerLayer {
		units[d.Name] = d.Unit
	}
	described := map[string]bool{}
	for _, d := range l.EndToEnd {
		described[d.Name] = true
		if units[d.Name] != d.Unit {
			t.Errorf("layers.json: end-to-end metric %s has unit %q, BENCHMARK.json %q", d.Name, d.Unit, units[d.Name])
		}
	}
	workloads := map[string]bool{}
	for _, w := range m.Workloads {
		workloads[w.Name] = true
	}
	for _, d := range l.PerLayer {
		described[d.Name] = true
		if units[d.Name] != d.Unit {
			t.Errorf("layers.json: metric %s has unit %q, BENCHMARK.json %q", d.Name, d.Unit, units[d.Name])
		}
		for _, e := range d.Moves {
			if !described[e] {
				t.Errorf("layers.json: %s moves %s, which is not an end-to-end metric", d.Name, e)
			}
		}
		for _, w := range d.On {
			if !workloads[w] {
				t.Errorf("layers.json: %s names workload %s, which BENCHMARK.json lacks", d.Name, w)
			}
		}
	}
	for name := range units {
		if !described[name] {
			t.Errorf("layers.json does not describe metric %s", name)
		}
	}
}
