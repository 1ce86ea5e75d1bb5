package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"time"
)

// DeviceResult is one device's simulation outcome. Every field except
// HostNS is a deterministic function of (image, Options, device ID); the
// host-time field is explicitly excluded from JSON output and from the
// aggregate hash so the determinism boundary is visible in the type.
type DeviceResult struct {
	Device    int  `json:"device"`
	Completed bool `json:"completed"`

	Boots            int `json:"boots"` // power failures survived (restarts)
	Checkpoints      int `json:"checkpoints"`
	BarrenBoots      int `json:"barren_boots"`
	TornCommits      int `json:"torn_commits"`
	RecoveredCommits int `json:"recovered_commits"`
	// The bit-granular NV failure model's counters: injected mid-word
	// tears, records the CRC seals rejected at boot, and boots that found
	// no usable checkpoint at all (see intermittent.Stats).
	TornWrites      int `json:"torn_writes"`
	DetectedCorrupt int `json:"detected_corrupt"`
	DegradedBoots   int `json:"degraded_boots"`
	CommitWrites    int `json:"commit_writes"`
	Outputs         int `json:"outputs"`
	// OutputsMatch reports whether the device's committed output log
	// equals, word for word, the image's outputs on continuous power. A
	// device that did not complete never matches. The bit stays out of
	// the aggregate hash (appendDeviceBinary), which pins the run's
	// accounting, not the correctness verdict.
	OutputsMatch bool `json:"outputs_match"`

	UsefulCycles  uint64 `json:"useful_cycles"`
	WallCycles    uint64 `json:"wall_cycles"`
	CkptCycles    uint64 `json:"ckpt_cycles"`
	RestartCycles uint64 `json:"restart_cycles"`
	ReexecCycles  uint64 `json:"reexec_cycles"`

	// ProgressPermille is useful/wall scaled to integer permille (the
	// paper's forward-progress rate); OverheadPermille is (wall-useful)/
	// useful likewise. Integer permille keeps the aggregate percentiles —
	// and therefore the hash — platform-independent.
	ProgressPermille uint64 `json:"progress_permille"`
	OverheadPermille uint64 `json:"overhead_permille"`

	Insns uint64 `json:"insns"`

	// Err is the run error for devices that never completed (wall-cycle
	// bound, barren-boot bound); empty on success.
	Err string `json:"err,omitempty"`

	// HostNS is host wall-time spent simulating this device: throughput
	// diagnostics only, outside the determinism boundary.
	HostNS int64 `json:"-"`
}

// Percentiles holds order statistics of a per-device metric. The index
// convention is (n-1)*p/100 in the sorted slice — integer floor, no
// interpolation — so the values are always actual device observations and
// identical on every platform.
type Percentiles struct {
	P50 uint64 `json:"p50"`
	P90 uint64 `json:"p90"`
	P99 uint64 `json:"p99"`
}

// Aggregate is the fleet-level fold of every DeviceResult, in device
// order. It is deterministic for a given (image, Options): byte-identical
// at any worker count, which Hash makes checkable at a glance — it is the
// FNV-1a of every device's binary-encoded result, so two runs agree on
// the hash exactly when they agree on every per-device outcome.
type Aggregate struct {
	Devices   int `json:"devices"`
	Completed int `json:"completed"`
	Errors    int `json:"errors"`
	// OutputMismatches counts devices whose outputs differ from the
	// continuous run's (DeviceResult.OutputsMatch false), incomplete
	// devices included. Like that bit it is not part of Hash.
	OutputMismatches int `json:"output_mismatches"`

	Boots            uint64 `json:"boots"`
	Checkpoints      uint64 `json:"checkpoints"`
	BarrenBoots      uint64 `json:"barren_boots"`
	TornCommits      uint64 `json:"torn_commits"`
	RecoveredCommits uint64 `json:"recovered_commits"`
	TornWrites       uint64 `json:"torn_writes"`
	DetectedCorrupt  uint64 `json:"detected_corrupt"`
	DegradedBoots    uint64 `json:"degraded_boots"`
	CommitWrites     uint64 `json:"commit_writes"`
	Outputs          uint64 `json:"outputs"`

	UsefulCycles  uint64 `json:"useful_cycles"`
	WallCycles    uint64 `json:"wall_cycles"`
	CkptCycles    uint64 `json:"ckpt_cycles"`
	RestartCycles uint64 `json:"restart_cycles"`
	ReexecCycles  uint64 `json:"reexec_cycles"`
	Insns         uint64 `json:"insns"`

	ProgressPermille Percentiles `json:"progress_permille"`
	OverheadPermille Percentiles `json:"overhead_permille"`

	Hash string `json:"hash"`
}

// Host is the non-deterministic half of a report: simulation throughput
// on this machine, this run. Excluded from Aggregate.Hash by design.
type Host struct {
	Workers       int     `json:"workers"`
	ElapsedNS     int64   `json:"elapsed_ns"`
	DevicesPerSec float64 `json:"devices_per_sec"`
	// NsPerInsn is total host nanoseconds over total simulated
	// instructions; the percentiles are per-device ns/insn order
	// statistics (hot outlier devices show up in the P99).
	NsPerInsn    float64 `json:"ns_per_insn"`
	NsPerInsnP50 float64 `json:"ns_per_insn_p50"`
	NsPerInsnP90 float64 `json:"ns_per_insn_p90"`
	NsPerInsnP99 float64 `json:"ns_per_insn_p99"`
}

// Report is a fleet run's full outcome.
type Report struct {
	Agg     Aggregate      `json:"aggregate"`
	Host    Host           `json:"host"`
	Results []DeviceResult `json:"-"` // per-device stream; see sink.go
}

// appendDeviceBinary encodes the deterministic fields of r little-endian
// into buf: the hash preimage. The layout is internal (only the hash is
// published) but must stay in device-field order so a changed field is a
// changed hash.
func appendDeviceBinary(buf []byte, r *DeviceResult) []byte {
	u := func(v uint64) {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	u(uint64(r.Device))
	if r.Completed {
		u(1)
	} else {
		u(0)
	}
	u(uint64(r.Boots))
	u(uint64(r.Checkpoints))
	u(uint64(r.BarrenBoots))
	u(uint64(r.TornCommits))
	u(uint64(r.RecoveredCommits))
	u(uint64(r.TornWrites))
	u(uint64(r.DetectedCorrupt))
	u(uint64(r.DegradedBoots))
	u(uint64(r.CommitWrites))
	u(uint64(r.Outputs))
	u(r.UsefulCycles)
	u(r.WallCycles)
	u(r.CkptCycles)
	u(r.RestartCycles)
	u(r.ReexecCycles)
	u(r.ProgressPermille)
	u(r.OverheadPermille)
	u(r.Insns)
	u(uint64(len(r.Err)))
	buf = append(buf, r.Err...)
	return buf
}

// aggregate folds results (already in device order) into the totals,
// percentiles, and hash.
func aggregate(results []DeviceResult) Aggregate {
	agg := Aggregate{Devices: len(results)}
	h := fnv.New64a()
	var buf []byte
	progress := make([]uint64, 0, len(results))
	overhead := make([]uint64, 0, len(results))
	for i := range results {
		r := &results[i]
		buf = appendDeviceBinary(buf[:0], r)
		h.Write(buf)
		if r.Completed {
			agg.Completed++
		}
		if r.Err != "" {
			agg.Errors++
		}
		if !r.OutputsMatch {
			agg.OutputMismatches++
		}
		agg.Boots += uint64(r.Boots)
		agg.Checkpoints += uint64(r.Checkpoints)
		agg.BarrenBoots += uint64(r.BarrenBoots)
		agg.TornCommits += uint64(r.TornCommits)
		agg.RecoveredCommits += uint64(r.RecoveredCommits)
		agg.TornWrites += uint64(r.TornWrites)
		agg.DetectedCorrupt += uint64(r.DetectedCorrupt)
		agg.DegradedBoots += uint64(r.DegradedBoots)
		agg.CommitWrites += uint64(r.CommitWrites)
		agg.Outputs += uint64(r.Outputs)
		agg.UsefulCycles += r.UsefulCycles
		agg.WallCycles += r.WallCycles
		agg.CkptCycles += r.CkptCycles
		agg.RestartCycles += r.RestartCycles
		agg.ReexecCycles += r.ReexecCycles
		agg.Insns += r.Insns
		progress = append(progress, r.ProgressPermille)
		overhead = append(overhead, r.OverheadPermille)
	}
	slices.Sort(progress)
	slices.Sort(overhead)
	agg.ProgressPermille = percentilesOf(progress)
	agg.OverheadPermille = percentilesOf(overhead)
	agg.Hash = fmt.Sprintf("%016x", h.Sum64())
	return agg
}

// percentilesOf reads the order statistics off an already-sorted slice.
func percentilesOf(sorted []uint64) Percentiles {
	n := len(sorted)
	if n == 0 {
		return Percentiles{}
	}
	at := func(p int) uint64 { return sorted[(n-1)*p/100] }
	return Percentiles{P50: at(50), P90: at(90), P99: at(99)}
}

// hostStats folds the throughput side.
func hostStats(results []DeviceResult, workers int, elapsed time.Duration) Host {
	host := Host{Workers: workers, ElapsedNS: elapsed.Nanoseconds()}
	var totalNS int64
	var totalInsns uint64
	perDevice := make([]float64, 0, len(results))
	for i := range results {
		r := &results[i]
		totalNS += r.HostNS
		totalInsns += r.Insns
		if r.Insns > 0 {
			perDevice = append(perDevice, float64(r.HostNS)/float64(r.Insns))
		}
	}
	if sec := elapsed.Seconds(); sec > 0 {
		host.DevicesPerSec = float64(len(results)) / sec
	}
	if totalInsns > 0 {
		host.NsPerInsn = float64(totalNS) / float64(totalInsns)
	}
	if n := len(perDevice); n > 0 {
		slices.Sort(perDevice)
		host.NsPerInsnP50 = perDevice[(n-1)*50/100]
		host.NsPerInsnP90 = perDevice[(n-1)*90/100]
		host.NsPerInsnP99 = perDevice[(n-1)*99/100]
	}
	return host
}
