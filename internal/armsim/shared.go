package armsim

// Shared predecoded/fused program images for fleet-scale simulation. A
// single device costs ~1.8 MB of which the decode cache (tab + runTab +
// runCover + the fusion arenas) is the dominant share — and it is derived
// entirely from the immutable program text, so a fleet of devices running
// one image re-derives byte-identical caches per device. SharedProgram
// builds the cache ONCE (a throwaway warm-up execution discovers and
// translates the hot fused runs, then an eager pass decodes every
// remaining text slot) and freezes it; any number of CPUs then execute
// through the same frozen cache concurrently.
//
// Safety argument, in three parts (exercised under -race by the fleet and
// intermittent test suites):
//
//  1. A frozen cache is never written. Every lazy mutation point checks
//     pd.frozen: the miss path (decode) decodes an undecoded slot into the
//     CPU's own scratch record, Step translates into its own scratch
//     micro-op, StepFused and execRun skip buildRun for unexamined heads,
//     and Invalidate panics (it is unreachable: see 2 and 3).
//
//  2. Data writes cannot require invalidation. During the build, limitB
//     bounds every cached encoding to lie strictly below the text end
//     (decode refuses to cache entries that would cross it, and buildRun's
//     scan stops at the first refusal), so a store at addr >= limitB
//     provably overlaps no frozen entry. The write hook installed by
//     AttachShared is therefore one compare in the common case.
//
//  3. Text writes copy-on-write. A store below limitB (self-modifying
//     code, or a checkpoint drain landing in text) clones the frozen
//     cache into a private, unfrozen copy for that CPU alone before
//     invalidating — semantics identical to a private machine from that
//     instruction on, at the cost of one ~1.6 MB copy.
//
// The build executes through freezeBus, which classifies TEXT literal
// loads as the intermittent machine's busAdapter does, so the frozen runs
// cover the same blocks a per-device build would, and each device's bus
// ends a run early through a veto or a Yield where its own machine must
// act.

import (
	"slices"
	"unsafe"
)

// SharedProgram is an immutable predecode+fusion cache for one program
// image, safe for concurrent use by any number of CPUs (AttachShared).
type SharedProgram struct {
	pd     *DecodeCache
	limitB uint32
	// TEXT-literal classification window the cache was built with (word
	// addresses); attaching machines must classify identically.
	textLoW, textHiW uint32
	imgSum           uint64
	imgLen           int
	// Runs is the number of fused runs discovered by the warm-up
	// execution (0 when the image self-modifies; see NewSharedProgram).
	Runs int
	// WarmCycles is the warm-up run's continuous cycle count.
	WarmCycles uint64
	// outputs is the warm-up run's output-port words (Outputs).
	outputs []uint32
}

// freezeBus is the build-time bus: a monitored-bus stand-in (it implements
// TextLitLoader, which the bare *Memory does not) that routes everything to
// the backing memory. Stores fire the memory's write hook, keeping the
// cache coherent during the warm-up execution.
type freezeBus struct{ mem *Memory }

func (b freezeBus) Load(addr uint32, size uint8, pc uint32) (uint32, error) {
	return b.mem.Load(addr, size, pc)
}

func (b freezeBus) Store(addr uint32, size uint8, v uint32, pc uint32) error {
	return b.mem.Store(addr, size, v, pc)
}

func (b freezeBus) Fetch16(addr uint32) (uint16, error) { return b.mem.Fetch16(addr) }

// LoadTextLit implements TextLitLoader so warm-up fills classify literal
// loads exactly as a monitored machine bus would.
func (b freezeBus) LoadTextLit(addr, pc uint32) (uint32, error) {
	return b.mem.ReadWord(addr), nil
}

// warmUpMax bounds the throwaway warm-up execution.
const warmUpMax = 2_000_000_000

// NewSharedProgram builds and freezes the shared cache for an image.
// initialSP and entry come from the image header; textEnd is the byte
// bound of the text+rodata region (nothing at or above it is ever decoded
// into the frozen cache). litLoW/litHiW is the TEXT-window word range for
// literal-load classification — pass 0,0 when the attaching machines run
// without one; it must equal the window those machines would set.
//
// The image must halt (BKPT) within the warm-up budget on continuous
// power. If the warm-up detects a store into [0, textEnd) — a
// self-modifying image — the fused runs built from patched text are
// discarded and the cache freezes decode-only from the pristine bytes:
// still correct for every device (each clones on its own first text
// write), just without prebuilt runs.
func NewSharedProgram(img []byte, initialSP, entry, textEnd uint32, litLoW, litHiW uint32) (*SharedProgram, error) {
	lim := (textEnd + 1) &^ 1
	if lim == 0 || int(lim) > len(img) {
		lim = uint32(len(img)) &^ 1
	}
	mem := NewMemory()
	if err := mem.LoadImage(0, img); err != nil {
		return nil, err
	}
	cpu := NewCPU(freezeBus{mem})
	cpu.EnablePredecode(mem)
	pd := cpu.pd
	pd.limitB = lim
	if litHiW > litLoW {
		cpu.SetTextWindow(litLoW, litHiW)
	}
	// Wrap the invalidation hook to detect self-modifying warm-ups.
	textWritten := false
	mem.SetWriteHook(func(addr, size uint32) {
		if addr < lim {
			textWritten = true
		}
		pd.Invalidate(addr, size)
	})

	cpu.ResetInto(initialSP, entry)
	err := cpu.RunTo(warmUpMax)
	switch {
	case err == ErrHalted:
		// Normal completion.
	case err == nil:
		return nil, errHalt("armsim: shared-program warm-up did not halt within budget")
	default:
		return nil, err
	}
	sp := &SharedProgram{
		limitB:     lim,
		textLoW:    litLoW,
		textHiW:    litHiW,
		imgSum:     fnv1a(img),
		imgLen:     len(img),
		WarmCycles: cpu.Cycle,
		outputs:    slices.Clone(mem.Outputs),
	}
	if textWritten {
		// The executed text diverged from the pristine image: restore it
		// and drop everything the warm-up cached, runs over unpatched text
		// included, so the eager pass below rebuilds decode-only.
		_ = mem.ResetTo(img) // cannot fail: img fit the LoadImage above
		pd.Invalidate(0, MemSize)
	}
	// Eager pass: decode every remaining slot below the limit so frozen
	// execution rarely misses. A slot the cache refuses (a 32-bit encoding
	// straddling the limit) or whose fetch faults stays kindNone; the miss
	// path executes it, or raises the same fault, at run time.
	for slot := 0; uint32(slot)*2+2 <= lim; slot++ {
		if d := &pd.tab[slot]; d.Kind == kindNone {
			_, _ = cpu.decode(d, uint32(slot)*2)
		}
	}
	sp.Runs = len(pd.runs)
	pd.frozen = true
	sp.pd = pd
	// The builder's memory, CPU, and hook are garbage from here on; the
	// frozen cache is the only surviving artifact.
	return sp, nil
}

// Matches verifies that a machine about to attach was built for the same
// image bytes and the same TEXT-literal window as this program; frozen
// entries are only valid against both.
func (sp *SharedProgram) Matches(img []byte, litLoW, litHiW uint32) error {
	if len(img) != sp.imgLen || fnv1a(img) != sp.imgSum {
		return errHalt("armsim: shared program was built from a different image")
	}
	if litLoW != sp.textLoW || litHiW != sp.textHiW {
		return errHalt("armsim: shared program was built with a different TEXT window")
	}
	return nil
}

// Outputs returns the words the warm-up execution wrote to the output
// port: the program's outputs on continuous power, the oracle every
// intermittent run of the image must reproduce. The slice is shared and
// must not be modified.
func (sp *SharedProgram) Outputs() []uint32 { return sp.outputs }

// FootprintBytes reports the frozen cache's resident size: the per-device
// memory a fleet amortizes across every machine sharing this program.
func (sp *SharedProgram) FootprintBytes() uint64 { return sp.pd.footprintBytes() }

// AttachShared points the CPU at a frozen shared program: the CPU's decode
// cache becomes sp's (read-only; see the package comment's safety
// argument), the TEXT window is copied from the build, and mem's write
// hook becomes the copy-on-write invalidator — a store below the frozen
// decode bound clones the cache into a private unfrozen copy for this CPU
// before invalidating, while every other store is a single compare.
// mem must be the memory the CPU's Bus fetches from. Re-attaching after a
// copy-on-write discards the private clone.
func (c *CPU) AttachShared(sp *SharedProgram, mem *Memory) {
	c.pd = sp.pd
	c.SetTextWindow(sp.textLoW, sp.textHiW)
	mem.SetWriteHook(func(addr, size uint32) {
		pd := c.pd
		if pd.frozen {
			if addr >= sp.limitB {
				return
			}
			pd = sp.pd.clone()
			c.pd = pd
		}
		pd.Invalidate(addr, size)
	})
}

// Frozen reports whether the CPU currently executes through a frozen
// shared cache (false after a copy-on-write clone).
func (c *CPU) Frozen() bool { return c.pd != nil && c.pd.frozen }

// DecodeFootprint returns the decode cache bytes this CPU owns privately:
// 0 for a frozen shared cache (amortized across the fleet; see
// SharedProgram.FootprintBytes), the full cache size otherwise —
// including a copy-on-write clone.
func (c *CPU) DecodeFootprint() uint64 {
	if c.pd == nil || c.pd.frozen {
		return 0
	}
	return c.pd.footprintBytes()
}

// footprintBytes sums the cache's backing allocations.
func (pd *DecodeCache) footprintBytes() uint64 {
	return uint64(len(pd.tab))*uint64(unsafe.Sizeof(DecodedInsn{})) +
		uint64(len(pd.runTab))*4 +
		uint64(len(pd.runCover))*8 +
		uint64(cap(pd.runs))*uint64(unsafe.Sizeof(fusedRun{})) +
		uint64(cap(pd.ops))*uint64(unsafe.Sizeof(fusedOp{}))
}

// clone deep-copies the cache into a private, unfrozen, unbounded copy:
// the copy-on-write target when a shared device writes its own text. The
// clone drops limitB so post-divergence execution lazily fills and fuses
// past the old bound exactly like a private machine.
func (pd *DecodeCache) clone() *DecodeCache {
	return &DecodeCache{
		tab:      append([]DecodedInsn(nil), pd.tab...),
		maxSlot:  pd.maxSlot,
		runTab:   append([]int32(nil), pd.runTab...),
		runs:     append([]fusedRun(nil), pd.runs...),
		ops:      append([]fusedOp(nil), pd.ops...),
		runCover: append([]uint64(nil), pd.runCover...),
		fuse:     pd.fuse,
	}
}

// fnv1a is the 64-bit FNV-1a hash (image identity checks).
func fnv1a(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// errHalt is a tiny constant-error helper.
type errHalt string

func (e errHalt) Error() string { return string(e) }
