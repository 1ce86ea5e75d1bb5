// Package intermittent is the full-system model: an armsim CPU and
// non-volatile main memory with the Clank detection hardware on the memory
// path, executing a compiled program across random power failures. It
// implements the compiler-inserted runtime of paper section 4 — the
// double-buffered checkpoint slots, the Write-back scratchpad two-phase
// commit, the start-up/restore routine, and both watchdog timers — as a
// modeled runtime with explicit cycle costs, and it runs the reference
// monitor alongside for dynamic verification of every run.
package intermittent

import (
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/armsim"
	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/power"
	"repro/internal/refmon"
	"repro/internal/scheme"
)

// errCheckpoint is the bus veto: the current instruction must abort, a
// checkpoint must be taken, and the instruction re-executed.
var errCheckpoint = errors.New("intermittent: checkpoint required")

// Options configures an intermittent run.
type Options struct {
	Config clank.Config
	Costs  clank.CostModel // zero = clank.DefaultCosts()
	Supply power.Source

	// Scheme selects the runtime scheme deciding which accesses are
	// buffered and when execution commits (nil = scheme.ClankFactory{},
	// the paper's detector). All schemes share the machine's CRC-sealed
	// two-phase commit program, reboot recovery, and fault injection.
	Scheme scheme.Factory

	// PerfWatchdog, when non-zero, checkpoints whenever this many cycles
	// elapse without one (paper's Performance Watchdog).
	PerfWatchdog uint64
	// ProgressDefault is the Progress Watchdog's initial load value; 0
	// disables the watchdog entirely (risking livelock on runt cycles).
	ProgressDefault uint64

	// MaxWallCycles bounds the run (0 = a generous default).
	MaxWallCycles uint64
	// MaxBarrenBoots aborts after this many consecutive power cycles with
	// no committed checkpoint (0 = default 10000).
	MaxBarrenBoots int

	// Verify enables the reference monitor (on by default via Run*
	// helpers and always used in tests). It costs about 8-9 ns per
	// tracked NV access, independent of section length: a monitored run
	// takes 1.04x-1.13x the host time of an unmonitored one (perfbench
	// refmon.verify_ratio on the harsh and sweep workloads, Intel Xeon).
	Verify bool

	// FailAfterAccess, when non-nil, is consulted after every committed
	// tracked data access (non-vetoed loads and stores below MemSize,
	// identified by byte address); returning true cuts power immediately
	// after the current instruction completes. It gives deterministic
	// schedules the same step granularity as the verify mini-machine —
	// the full-stack differential harness counts pattern-region accesses
	// with it — where the cycle-driven Supply cannot hit exact access
	// boundaries.
	FailAfterAccess func(addr uint32, write bool) bool

	// CommitBug deliberately breaks the commit protocol for meta-testing:
	// the crash-consistency sweep must catch the corruption the bug makes
	// reachable. Production runs leave it at BugNone.
	CommitBug CommitBug
}

// TearAtCommitWrite returns a SetNVFault hook that tears exactly the n-th
// (0-based) commit-protocol NV write of the run with the given bit mask;
// mask 0 cuts power cleanly before the write.
func TearAtCommitWrite(n int, mask uint32) func(int) (bool, uint32) {
	return func(w int) (bool, uint32) { return w == n, mask }
}

// CommitBug selects a deliberately broken commit-protocol variant.
type CommitBug uint8

const (
	// BugNone is the correct protocol.
	BugNone CommitBug = iota
	// BugEarlyFlip seals (arms) the journal before its entries are
	// written — the classic torn-commit bug: the seal's CRC covers
	// whatever stale garbage the region holds, so a cut before the
	// entries land leaves a validating journal of garbage, and a cut
	// after they land leaves a journal whose contents no longer match its
	// own seal — either way the real Write-back values are unreplayable.
	BugEarlyFlip
	// BugSkipCRC drops the CRC from the record format: seals are written
	// in arming-write-last order (journal length last, slot sequence
	// last) and recovery trusts any record with a plausible length word.
	// Under WORD-atomic NV writes this protocol is actually correct —
	// the word-granular cut sweep cannot fault it — but a torn seal write
	// can blend old and new sequence/length bits into a record that
	// validates with the wrong identity, which only the bit-granular
	// (cut × mask) sweep reaches. The meta-test proving that detection
	// gap is why this variant exists.
	BugSkipCRC
)

// Stats is the outcome of an intermittent run.
type Stats struct {
	Completed bool
	clank.Counters

	Outputs []uint32

	CommitWrites     int // NV word writes attempted by commit + recovery routines
	TornCommits      int // commit routines interrupted by a power failure
	RecoveredCommits int // reboots that replayed an armed journal to completion

	TornWrites      int // NV writes cut mid-word by an injected fault (mask applied)
	DetectedCorrupt int // boot-time decodes that found a corrupt slot or journal record
	DegradedBoots   int // boots with no valid checkpoint slot: fresh-boot fallback
}

// Machine executes one image intermittently.
//
// The committed register checkpoint lives in two CRC-sealed NV slot records
// (clank.SlotRecord, A/B alternation with monotonic sequence numbers). The
// record's cycle field snapshots the useful-progress counter so rollbacks
// rewind it; re-executed work is charged to the wall clock, not to program
// progress. The Outputs field is the committed output-log watermark: an
// output emitted after the checkpoint is not committed until its trailing
// checkpoint lands, so a rollback must truncate the log back to this mark
// or the re-executed store would emit the word twice (the output-commit
// problem, paper section 3.3). The Suppress field carries the degraded-boot
// output-deduplication count across power cycles.
type Machine struct {
	cpu *armsim.CPU
	mem *armsim.Memory

	// sch is the runtime scheme on the memory path; every cold-path
	// consultation (commit drains, reboots, footprints, the run loop's
	// will-commit predicate) goes through it.
	//
	// k is the devirtualized fast path: when the scheme is a *scheme.Clank,
	// k holds its embedded detector and load/store run the monomorphic path
	// where clank.Read/Write inline (the io.Copy idiom — interface callers
	// get correctness, the dominant concrete type keeps its speed). For
	// every other scheme k is nil and the bus routes through loadGeneric/
	// storeGeneric on sch. Measured worth of the seam: with k left nil for
	// Clank (the access port still installed from the detector's Port()),
	// perfbench harsh ops_per_s read 0.940–0.948 and fleet 0.961–0.964 of
	// the devirtualized build (2-vCPU VM, 12 s runs, alternating pairs,
	// main.calibrate 64-byte aligned in both binaries).
	sch scheme.Scheme
	k   *clank.Clank

	mon  *refmon.Monitor
	opts Options

	nvFault func(write int) (bool, uint32) // torn-write injector (SetNVFault)

	// Non-volatile runtime state (conceptually in the ccc reserved region):
	// the A/B checkpoint slot records and the Write-back scratchpad
	// journal, each a raw NV word region carrying one CRC-sealed record
	// (clank/nvformat.go). Power failures never clear these; every commit-
	// protocol write into them may be torn mid-word by an injected fault.
	slotNV [2]*armsim.NVRegion
	jnlNV  *armsim.NVRegion

	// Volatile mirror of the boot-time record decode: the best valid slot
	// and its sequence number, and the sequence the next commit will seal
	// with. Re-derived from NV at every reboot (powerFail), so a torn
	// commit can never leave them pointing at a record that does not
	// validate.
	active    int
	activeSeq uint32
	nextSeq   uint32

	// outSuppress counts re-emitted outputs still to swallow after a
	// degraded (fresh-semantics) boot: the committed output log survives
	// the degradation, and the re-executed program's first outSuppress
	// emissions are duplicates of its preserved prefix.
	outSuppress int

	slotEnc [clank.SlotRecWords]uint32 // staged record of the in-flight commit

	// led is the power budget, the watchdogs and the Counters half of
	// stats; result() merges it into the Stats a run returns.
	led clank.Ledger

	pendingReason  clank.Reason // reason behind the current bus veto
	forceCkptAfter bool         // output emitted: checkpoint after this instruction
	cutPower       bool         // FailAfterAccess fired: outage after this instruction
	stepCycle      uint64       // cpu.Cycle when the current StepFused call began

	// TEXT-read fast path (OptIgnoreText): the word-address window
	// textWindow derives from the detector's configuration. Reads of
	// words in [textLoW, textLoW+textSpanW) skip detector classification —
	// the verdict is statically Outcome{} — and only bump the section
	// access count. textSpanW stays 0 when OptIgnoreText is off, making
	// the unsigned window test below always false.
	textLoW   uint32
	textSpanW uint32

	dirtyScratch []clank.WBEntry    // reused by every checkpoint drain
	stepScratch  []clank.CommitStep // reused by every commit/recovery walk

	// shared, when non-nil, is the frozen decode+fusion cache this machine
	// executes through instead of a private one (NewMachineShared). The
	// fleet engine attaches thousands of machines to one such cache; see
	// armsim.SharedProgram for the immutability argument.
	shared *armsim.SharedProgram

	stats Stats
	img   *ccc.Image // the image the current run executes
	boot  *ccc.Image // the constructor image ResetDevice restores
}

// NewMachine boots the image on a fresh machine with a private decode
// cache.
func NewMachine(img *ccc.Image, opts Options) (*Machine, error) {
	return newMachine(img, opts, nil)
}

// NewMachineShared boots the image on a machine that executes through a
// frozen shared program cache (BuildSharedProgram) instead of building a
// private one — dropping per-device memory from ~1.8 MB to the NV memory,
// detector, and journal (see Footprint), which is what makes fleets of
// tens of thousands of devices practical. prog must have been built from
// this image under an equivalent Clank configuration (same TEXT window).
func NewMachineShared(img *ccc.Image, opts Options, prog *armsim.SharedProgram) (*Machine, error) {
	if prog == nil {
		return nil, errors.New("intermittent: NewMachineShared requires a shared program")
	}
	return newMachine(img, opts, prog)
}

// BuildSharedProgram builds the frozen decode+fusion cache for img exactly
// as machines constructed with the same Options would build it privately:
// the TEXT-literal window comes from the detector's own classification, so
// NewMachineShared machines attach without reclassification drift. The
// build costs one continuous warm-up execution of the image.
func BuildSharedProgram(img *ccc.Image, opts Options) (*armsim.SharedProgram, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	cfg, winLo, winHi := textWindow(opts.Config, img)
	return armsim.NewSharedProgram(img.Bytes, img.InitialSP, img.Entry, cfg.TextEnd, winLo, winHi)
}

// textWindow completes cfg's TEXT bounds from img when cfg leaves them
// unset and returns the TEXT word window [lo, hi) that the machine's
// dynamic TEXT test, the CPU's literal pre-classifier and the shared
// program all use: the detector's own word bounds (clank.Config.TextWords,
// which round an unaligned TextEnd up to cover the straddling word) under
// OptIgnoreText, empty otherwise.
func textWindow(cfg clank.Config, img *ccc.Image) (clank.Config, uint32, uint32) {
	if cfg.TextEnd == 0 {
		cfg.TextStart, cfg.TextEnd = img.TextStart, img.TextEnd
	}
	if lo, hi, on := cfg.TextWords(); on && hi > lo {
		return cfg, lo, hi
	}
	return cfg, 0, 0
}

func newMachine(img *ccc.Image, opts Options, prog *armsim.SharedProgram) (*Machine, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if opts.Costs == (clank.CostModel{}) {
		opts.Costs = clank.DefaultCosts()
	}
	if opts.Supply == nil {
		opts.Supply = power.Always{}
	}
	if opts.MaxWallCycles == 0 {
		opts.MaxWallCycles = 2_000_000_000
	}
	if opts.MaxBarrenBoots == 0 {
		opts.MaxBarrenBoots = 10000
	}
	cfg, winLo, winHi := textWindow(opts.Config, img)
	fac := opts.Scheme
	if fac == nil {
		fac = scheme.ClankFactory{}
	}
	m := &Machine{
		mem:       armsim.NewMemory(),
		sch:       fac.New(cfg),
		jnlNV:     armsim.NewNVRegion(clank.JournalHeaderWords),
		opts:      opts,
		textLoW:   winLo,
		textSpanW: winHi - winLo,
		boot:      img,
		shared:    prog,
	}
	// Devirtualize the Clank fast path: a concrete *scheme.Clank is the
	// signal that load/store may run monomorphically (Boxed hides it).
	if ck, ok := m.sch.(*scheme.Clank); ok {
		m.k = ck.Clank
	}
	m.slotNV[0] = armsim.NewNVRegion(clank.SlotRecWords)
	m.slotNV[1] = armsim.NewNVRegion(clank.SlotRecWords)
	if opts.Verify {
		m.mon = refmon.New()
	}
	m.cpu = armsim.NewCPU(busAdapter{m})
	if prog != nil {
		// Frozen entries are only valid against the exact image bytes and
		// TEXT classification they were built from; refuse mismatches here
		// rather than silently mis-executing.
		if err := prog.Matches(img.Bytes, winLo, winHi); err != nil {
			return nil, err
		}
	} else {
		// One CPU and one decode cache serve the whole run: power cycles
		// roll back registers and Clank state, not non-volatile text, so the
		// cache stays warm across every reboot. Stores that land in the text
		// region (self-modifying code, checkpoint drains of buffered text
		// writes) invalidate the affected lines through the Memory write
		// hook.
		m.cpu.EnablePredecode(m.mem)
		m.cpu.SetTextWindow(winLo, winHi)
	}
	// The access port: with nothing but the detector watching the memory
	// path, the accesses the detector certifies have fixed effects on this
	// bus, so the CPU completes them in the loop. A filter hit is "count it
	// and touch memory" (load's and store's filter-hit branches, and load's
	// TEXT branch for a pre-classified literal). A word the index places in
	// a dirty Write-back slot is "count it and use the slot": load's FromWB
	// branch and store's Buffered branch, memory untouched. A store to a
	// word in a clean slot whose merged word equals the saved read value is
	// the false write Write lets through: "count it and store". A reference
	// monitor or a FailAfterAccess hook must see every access, and a boxed
	// or non-Clank scheme has no filter to share; all of those keep the
	// whole Bus path.
	if m.k != nil && m.mon == nil && opts.FailAfterAccess == nil {
		m.cpu.SetAccessPort(m.k.Port(), m.mem)
	}
	// The first boot is a Reboot of fresh memory; on a shared-program
	// machine it attaches the frozen cache once memory holds the image.
	if err := m.Reboot(img); err != nil {
		return nil, err
	}
	return m, nil
}

// Reboot re-arms the machine for a fresh run of img, reusing the memory,
// CPU, predecode-cache, and detector allocations (NewMachine costs ~1.8 MB
// per instance; the differential sweep reboots one cached machine per
// configuration across hundreds of thousands of images). The Clank
// configuration is the one fixed at construction — including text bounds, if
// they were derived from the original image — so every image rebooted into
// the machine must share the constructor image's layout. Memory.ResetTo
// restores and invalidates only what differs from img, so a reboot of the
// image memory holds keeps every decoded run; on a shared-program machine
// a different image copies the frozen cache on write, and the constructor
// image rejoins it. All runtime state restarts, Insns included.
func (m *Machine) Reboot(img *ccc.Image) error {
	if err := m.mem.ResetTo(img.Bytes); err != nil {
		return err
	}
	if img == m.boot && m.shared != nil && !m.cpu.Frozen() {
		m.cpu.AttachShared(m.shared, m.mem)
	}
	m.img = img
	m.sch.Committed(0)
	if m.mon != nil {
		m.mon.Reset()
	}
	m.cpu.ResetInto(img.InitialSP, img.Entry)
	m.cpu.Cycle = 0
	m.cpu.Insns = 0
	m.led = clank.NewLedger(m.opts.PerfWatchdog, m.opts.ProgressDefault)
	m.stats = Stats{}
	m.pendingReason = 0
	m.forceCkptAfter = false
	m.cutPower = false
	m.jnlNV.Reset()
	m.slotNV[0].Reset()
	m.slotNV[1].Reset()
	// The compiler pre-creates checkpoint 0, boot state entering main
	// (paper section 4.2), in slot A with sequence 1 (0 means "no valid
	// slot"), so the start-up routine never special-cases the first boot.
	// These are image-load writes: the fault injector never sees them.
	clank.EncodeSlot(m.slotEnc[:], clank.SlotRecord{
		Regs: m.cpu.Regs(), PSR: m.cpu.PSR(), Seq: 1,
	})
	for i, v := range m.slotEnc {
		m.slotNV[0].SetWord(i, v)
	}
	m.active, m.activeSeq, m.nextSeq = 0, 1, 2
	m.outSuppress = 0
	return nil
}

// ResetDevice re-arms the machine as a factory-fresh device running its
// constructor image, optionally swapping the power supply (nil keeps the
// current one): the fleet engine's per-device reset. It is Reboot of the
// constructor image, so it is alloc-free, keeps a shared-program machine
// on the frozen cache, and rejoins it after the previous device's
// self-modifying code forced a private clone.
func (m *Machine) ResetDevice(supply power.Source) {
	if supply != nil {
		m.opts.Supply = supply
	}
	// The constructor image cannot fail to restore: it fit at build time.
	_ = m.Reboot(m.boot)
}

// Footprint estimates this machine's resident bytes: the per-device cost a
// fleet pays for every concurrently live device. The dominant term is the
// 256 KB non-volatile memory; the detector, slot/journal NV regions, and
// commit scratch follow; the decode cache counts only when private (on a shared-program
// machine it is amortized across the fleet — armsim.SharedProgram
// .FootprintBytes — and a device re-owns it only after self-modifying
// code forces a copy-on-write clone). The reference monitor (Verify) is
// excluded: its shadow state grows with the touched address set and
// fleet-scale runs leave it off.
func (m *Machine) Footprint() uint64 {
	f := uint64(armsim.MemSize)
	f += m.sch.Footprint()
	f += m.jnlNV.Footprint() + m.slotNV[0].Footprint() + m.slotNV[1].Footprint()
	f += uint64(cap(m.dirtyScratch))*uint64(unsafe.Sizeof(clank.WBEntry{})) +
		uint64(cap(m.stepScratch))*uint64(unsafe.Sizeof(clank.CommitStep{}))
	f += m.cpu.DecodeFootprint()
	return f
}

// MemWord reads an aligned word of non-volatile memory without access
// tracking (final-state inspection by the differential harness).
func (m *Machine) MemWord(addr uint32) uint32 { return m.mem.ReadWord(addr) }

// SetNVFault installs (or, with nil, clears) the torn-write fault
// injector; it survives Reboot and ResetDevice. When non-nil, f is
// consulted before every NV word write of the commit protocol and of
// reboot-time journal recovery, identified by a run-global monotone write
// counter (Stats.CommitWrites is its final value). Returning (true, mask)
// cuts power AT that write under the bit-granular torn-write model:
// exactly the bits mask selects land — the cell reads old&^mask |
// new&mask afterwards — and the device is off, the rest of the boot's
// budget discarded. Mask 0 is the classic cut-before (nothing landed), ^0
// a cut immediately after a complete write; anything else is a mid-word
// tear the CRC-sealed record format must detect. It places outages at
// every individual commit-step boundary — the granularity the
// cycle-driven Supply cannot hit. The (cut × mask) crash sweep and the
// fleet's stochastic fault streams (derived fresh per device between
// ResetDevice and Run) both drive this hook. The counter advances on
// consultation, so a fired single-index hook (see TearAtCommitWrite)
// never re-fires on the redone commit.
func (m *Machine) SetNVFault(f func(write int) (bool, uint32)) { m.nvFault = f }

// Insns returns the CPU's monotonic retired-instruction counter, including
// re-executed instructions (throughput benchmarks divide wall time by it).
func (m *Machine) Insns() uint64 { return m.cpu.Insns }

// busAdapter routes CPU memory traffic through Clank.
type busAdapter struct{ m *Machine }

func (b busAdapter) Fetch16(addr uint32) (uint16, error) { return b.m.mem.Fetch16(addr) }

func (b busAdapter) Load(addr uint32, size uint8, pc uint32) (uint32, error) {
	v, err := b.m.load(addr, size, pc)
	if b.m.opts.FailAfterAccess != nil && err == nil && addr < armsim.MemSize {
		b.m.afterAccess(addr, false)
	}
	return v, err
}

func (b busAdapter) Store(addr uint32, size uint8, value uint32, pc uint32) error {
	err := b.m.store(addr, size, value, pc)
	if b.m.opts.FailAfterAccess != nil && err == nil && addr < armsim.MemSize {
		b.m.afterAccess(addr, true)
	}
	return err
}

func (m *Machine) load(addr uint32, size uint8, pc uint32) (uint32, error) {
	if addr >= armsim.MemSize {
		// Reads of the output region are not tracked state.
		return m.mem.Load(addr, size, pc)
	}
	word := addr >> 2
	if word-m.textLoW < m.textSpanW {
		// TEXT read under OptIgnoreText, for every scheme: the verdict is
		// statically Outcome{} (a TEXT word is never buffer-resident), so
		// only the section access count advances. Literal loads the CPU
		// pre-classified (armsim's kindLDRLitText) arrive here too when no
		// access port serves them. Answering TEXT reads here rather than
		// through Scheme.Read keeps an interface call off the generic
		// path's literal loads.
		if m.k != nil {
			m.k.AddAccesses(1)
		} else {
			m.sch.AddAccesses(1)
		}
		memWord := m.mem.ReadWord(addr)
		if m.mon != nil {
			m.mon.ReadNV(word, memWord)
		}
		return armsim.WordLane(memWord, addr, size), nil
	}
	if m.k == nil {
		return m.loadGeneric(word, addr, size, pc)
	}
	memWord := m.mem.ReadWord(addr)
	out := m.k.Read(word, memWord, pc)
	if out.NeedCheckpoint {
		m.pendingReason = out.Reason
		return 0, errCheckpoint
	}
	wordVal := memWord
	if out.FromWB {
		wordVal = out.ReadValue
	} else if m.mon != nil {
		m.mon.ReadNV(word, memWord)
	}
	return armsim.WordLane(wordVal, addr, size), nil
}

func (m *Machine) store(addr uint32, size uint8, value uint32, pc uint32) error {
	if addr >= armsim.MemSize {
		// Output commit (paper section 3.3): bracket the output with
		// checkpoints. If any work happened since the last checkpoint —
		// elapsed cycles, or accesses the detector classified without the
		// clock advancing (buffered work inside a re-executed
		// instruction) — commit it first; the instruction then
		// re-executes, emits the output, and forces a trailing
		// checkpoint. The condition mirrors the policy simulator's
		// bracketing exactly so the two engines count the same
		// checkpoints on the same access stream. Elapsed cycles include
		// those this StepFused call already retired: Run charges them
		// to the ledger only after the call returns, but the fused
		// engine flushes them into cpu.Cycle before every access.
		if m.led.SinceCkpt()+(m.cpu.Cycle-m.stepCycle) > 0 || m.sch.SectionAccesses() > 0 {
			m.pendingReason = clank.ReasonOutput
			return errCheckpoint
		}
		nOut := len(m.mem.Outputs)
		if err := m.mem.Store(addr, size, value, pc); err != nil {
			return err
		}
		if m.outSuppress > 0 && len(m.mem.Outputs) > nOut {
			// Degraded-boot replay dedup: this emission is the re-execution
			// of an output already committed in the preserved log prefix, so
			// it must not land twice. The bracketing above still applies —
			// the runtime checkpoints around the output exactly as if it
			// were live, it only skips the append.
			m.mem.Outputs = m.mem.Outputs[:nOut]
			m.outSuppress--
		}
		m.forceCkptAfter = true
		m.cpu.Yield()
		return nil
	}
	if m.k == nil {
		return m.storeGeneric(addr, size, value, pc)
	}
	word := addr >> 2
	memWord := m.mem.ReadWord(addr)
	// The effective current word folds in a shadowing Write-back entry. A
	// word store replaces all of it, so only sub-word stores look it up
	// (Lookup is a pure CAM scan).
	newWord := value
	if size != 4 {
		cur := memWord
		if v, ok := m.k.Lookup(word); ok {
			cur = v
		}
		newWord = armsim.MergeLane(cur, addr, size, value)
	}
	out := m.k.Write(word, newWord, memWord, pc)
	if out.NeedCheckpoint {
		m.pendingReason = out.Reason
		return errCheckpoint
	}
	if out.Buffered {
		return nil // absorbed by the Write-back Buffer
	}
	if m.mon != nil {
		if v := m.mon.WriteNV(word, newWord, pc); v != nil {
			return fmt.Errorf("dynamic verification failed: %w", v)
		}
	}
	return m.mem.Store(addr, size, value, pc)
}

// afterAccess consults the installed FailAfterAccess hook for a committed
// tracked access — a load or store below MemSize that neither vetoed nor
// failed. busAdapter is its only caller, so every such access reaches it
// exactly once. A cut takes effect at the boundary after the current
// instruction, so the fused engine is asked to return there.
func (m *Machine) afterAccess(addr uint32, write bool) {
	if m.opts.FailAfterAccess(addr, write) {
		m.cutPower = true
		m.cpu.Yield()
	}
}

// loadGeneric is load for non-Clank schemes past the TEXT window: the
// same classification sequence routed through the Scheme interface instead
// of the devirtualized detector. The duplication with load is deliberate —
// the acceptance bar for the scheme seam was that Clank's inlined fast
// path must not grow an interface call per access.
func (m *Machine) loadGeneric(word, addr uint32, size uint8, pc uint32) (uint32, error) {
	memWord := m.mem.ReadWord(addr)
	out := m.sch.Read(word, memWord, pc)
	if out.NeedCheckpoint {
		m.pendingReason = out.Reason
		return 0, errCheckpoint
	}
	wordVal := memWord
	if out.FromWB {
		wordVal = out.ReadValue
	} else if m.mon != nil {
		m.mon.ReadNV(word, memWord)
	}
	return armsim.WordLane(wordVal, addr, size), nil
}

// storeGeneric is store's scheme-interface twin for non-Clank schemes;
// see loadGeneric. The caller already handled the output region.
func (m *Machine) storeGeneric(addr uint32, size uint8, value uint32, pc uint32) error {
	word := addr >> 2
	memWord := m.mem.ReadWord(addr)
	// The effective current word folds in a shadowing buffered entry; a
	// word store needs no lookup (see store).
	newWord := value
	if size != 4 {
		cur := memWord
		if v, ok := m.sch.Lookup(word); ok {
			cur = v
		}
		newWord = armsim.MergeLane(cur, addr, size, value)
	}
	out := m.sch.Write(word, newWord, memWord, pc)
	if out.NeedCheckpoint {
		m.pendingReason = out.Reason
		return errCheckpoint
	}
	if out.Buffered {
		return nil // absorbed by the scheme's buffer
	}
	if m.mon != nil {
		if v := m.mon.WriteNV(word, newWord, pc); v != nil {
			return fmt.Errorf("dynamic verification failed: %w", v)
		}
	}
	return m.mem.Store(addr, size, value, pc)
}
