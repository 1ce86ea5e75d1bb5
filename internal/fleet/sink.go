package fleet

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// Result sinks. Both emit results in device order — the order Run stores
// them — so the streams inherit the engine's determinism: byte-identical
// files at any worker count (pinned by TestWorkerCountInvariance).

// WriteJSONL writes one JSON object per device per line. HostNS is
// excluded by its json:"-" tag, keeping the file inside the determinism
// boundary.
func WriteJSONL(w io.Writer, results []DeviceResult) error {
	enc := json.NewEncoder(w)
	for i := range results {
		if err := enc.Encode(&results[i]); err != nil {
			return err
		}
	}
	return nil
}

// csvHeader is the WriteCSV column order, matching DeviceResult field
// order.
var csvHeader = []string{
	"device", "completed",
	"boots", "checkpoints", "barren_boots", "torn_commits",
	"recovered_commits", "torn_writes", "detected_corrupt",
	"degraded_boots", "commit_writes", "outputs", "outputs_match",
	"useful_cycles", "wall_cycles", "ckpt_cycles", "restart_cycles",
	"reexec_cycles", "progress_permille", "overhead_permille", "insns",
	"err",
}

// WriteCSV writes a header row plus one row per device.
func WriteCSV(w io.Writer, results []DeviceResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	row := make([]string, len(csvHeader))
	for i := range results {
		r := &results[i]
		row[0] = strconv.Itoa(r.Device)
		row[1] = strconv.FormatBool(r.Completed)
		row[2] = strconv.Itoa(r.Boots)
		row[3] = strconv.Itoa(r.Checkpoints)
		row[4] = strconv.Itoa(r.BarrenBoots)
		row[5] = strconv.Itoa(r.TornCommits)
		row[6] = strconv.Itoa(r.RecoveredCommits)
		row[7] = strconv.Itoa(r.TornWrites)
		row[8] = strconv.Itoa(r.DetectedCorrupt)
		row[9] = strconv.Itoa(r.DegradedBoots)
		row[10] = strconv.Itoa(r.CommitWrites)
		row[11] = strconv.Itoa(r.Outputs)
		row[12] = strconv.FormatBool(r.OutputsMatch)
		row[13] = strconv.FormatUint(r.UsefulCycles, 10)
		row[14] = strconv.FormatUint(r.WallCycles, 10)
		row[15] = strconv.FormatUint(r.CkptCycles, 10)
		row[16] = strconv.FormatUint(r.RestartCycles, 10)
		row[17] = strconv.FormatUint(r.ReexecCycles, 10)
		row[18] = strconv.FormatUint(r.ProgressPermille, 10)
		row[19] = strconv.FormatUint(r.OverheadPermille, 10)
		row[20] = strconv.FormatUint(r.Insns, 10)
		row[21] = r.Err
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
