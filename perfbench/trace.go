package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call (nothing inside the simulator is instrumented).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 = root
	Op     int    `json:"op"`     // op id, -1 for set-up and probes
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTime aggregates one span name: call count, total time and self time
// (each span's duration minus the part its children cover).
type selfTime struct {
	Name    string `json:"name"`
	Calls   int    `json:"calls"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func (t *tracer) selfTimes() []selfTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	for i, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		st.Calls++
		st.TotalNS += s.End - s.Start
		st.SelfNS += s.End - s.Start - child[i]
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNS > out[j].SelfNS })
	return out
}

func printSelfTimes(w io.Writer, t *tracer) {
	fmt.Fprintf(w, "%-40s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, st := range t.selfTimes() {
		fmt.Fprintf(w, "%-40s %8d %12.3f %12.3f\n", st.Name, st.Calls, float64(st.TotalNS)/1e6, float64(st.SelfNS)/1e6)
	}
}

// writeSpans writes the traced run's spans, self-time summary and host
// fingerprint as one JSON document.
func writeSpans(path string, cfg config, host hostInfo, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	doc := struct {
		Workload  string     `json:"workload"`
		Seed      uint64     `json:"seed"`
		Host      hostInfo   `json:"host"`
		SelfTimes []selfTime `json:"self_times"`
		Spans     []span     `json:"spans"`
	}{cfg.workload, cfg.seed, host, t.selfTimes(), t.spans}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hostInfo stamps every run, so a slow host shows up in the data.
type hostInfo struct {
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CalibrationNS is the calibration kernel's median ns per step.
	CalibrationNS float64 `json:"calibration_ns_per_step"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		CPU:        cpuModel(),
		Go:         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	var samples []float64
	for i := 0; i < 5; i++ {
		samples = append(samples, calibrate())
	}
	h.CalibrationNS = median(samples)
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
