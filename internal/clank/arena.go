package clank

import "repro/internal/accfilter"

// NewArena builds one detector per configuration with all linear-scan CAM
// backing carved from two shared allocations, so a batch of detectors is a
// flat []Clank whose buffer storage is contiguous in memory — the batched
// replay engine (internal/policysim) indexes it by config slot and walks
// the trace once for the whole batch with no per-config pointer chasing.
// Each element behaves exactly like New(cfgs[i]); buffers whose capacity
// exceeds camLinearMax still allocate their own map index, as in New.
func NewArena(cfgs []Config) ([]Clank, error) {
	var words, slots int
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		for _, n := range [...]int{cfg.ReadFirst, cfg.WriteFirst, cfg.AddrPrefix} {
			if n <= camLinearMax {
				words += n
			}
		}
		if cfg.WriteBack <= camLinearMax {
			slots += cfg.WriteBack
		}
	}
	wordPool := make([]uint32, words)
	slotPool := make([]accfilter.Slot, slots)
	ks := make([]Clank, len(cfgs))
	for i, cfg := range cfgs {
		ks[i].initInto(cfg, &wordPool, &slotPool)
	}
	return ks, nil
}
