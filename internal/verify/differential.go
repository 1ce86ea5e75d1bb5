package verify

import (
	"fmt"

	"repro/internal/ccc"
	"repro/internal/clank"
	"repro/internal/intermittent"
)

// Full-stack differential mode: the same abstract Patterns the mini-machine
// checks are lowered into real Thumb-1 programs and executed on the
// armsim+intermittent pipeline (predecode fast path included) under an
// equivalent Clank configuration and failure schedule. Reads, final NV
// memory, and externally visible outputs must match the oracle — and hence
// the mini-machine, which DiffHarness.Check runs first. This closes the gap
// between the abstract section-5 proof and the production simulator.
//
// Lowering. Pattern word w lives at diffDataBase+4w; each op becomes one
// fixed 8-byte instruction block so every program with the same length
// budget shares one code layout and the per-configuration machine (and its
// ExemptPCs set) can be reused across patterns:
//
//	read block:  LDR r3,[r0,#4w] ; STR r3,[r1,#4r] (exempt) ; NOP ; NOP
//	write block: MOV r3,#v ; NOP ; STR r3,[r0,#4w] ; NOP
//
// The read log at diffLogBase records each read's value through stores the
// compiler marked Program Idempotent (section 4.3), so the log never
// perturbs detector state. The epilogue replays the log to the output port
// (LDR r3,[r1,#4j] (exempt) ; STR r3,[r2,#0]) and halts; the port stores
// exercise the full output-commit bracketing, and the recorded output
// stream is the program's read history as committed across every power
// failure. Constants are built with MOV+LSL — no literal pools, which would
// be tracked reads of text the mini-machine does not perform.
//
// Failure schedules map exactly: an intermittent.Options.FailAfterAccess
// hook counts committed pattern-region accesses — the same stream the
// mini-machine's step counter walks — and cuts power where Schedule.Fail
// fires, capped at maxRestarts like the mini-machine's liveness bound.
const (
	diffDataBase uint32 = 0x8000 // pattern words (word address 0x2000: prefix-aligned)
	diffLogBase  uint32 = 0x8200 // read log, one word per read
	diffMaxWords        = 32     // LDR/STR immediate offset limit (imm5 words)
)

// DiffHarness runs patterns through the full armsim+intermittent pipeline
// and compares against the oracle and the mini-machine. One harness caches
// one machine per configuration (a machine is ~1.8 MB of decode cache and
// memory; Reboot reuses it across patterns), so a harness is not safe for
// concurrent use — the sweep builds one per worker via Sweep.MakeCheck.
type DiffHarness struct {
	// Checker is the mini-machine the pipeline is compared against.
	Checker Checker

	maxOps   int
	machines map[string]*intermittent.Machine
	cur      *diffSchedule
}

// NewDiffHarness returns a harness for patterns of up to maxOps ops.
func NewDiffHarness(maxOps int) *DiffHarness {
	return &DiffHarness{maxOps: maxOps, machines: make(map[string]*intermittent.Machine)}
}

// diffSchedule adapts a verify.Schedule to the FailAfterAccess hook: it
// counts committed pattern-region accesses, mirroring the mini-machine's
// step counter (log, epilogue, and output traffic is not counted).
type diffSchedule struct {
	sched Schedule
	step  int
	fires int
}

func (h *DiffHarness) hook(addr uint32, write bool) bool {
	s := h.cur
	if s == nil || addr < diffDataBase || addr >= diffLogBase {
		return false
	}
	fire := s.sched.Fail(s.step)
	s.step++
	if fire {
		s.fires++
		if s.fires > maxRestarts {
			// Non-terminating schedule (e.g. FailEvery{1}): stop firing so
			// the run completes, exactly as the mini-machine bounds
			// liveness; the completed run still faces the full comparison.
			return false
		}
	}
	return fire
}

// Check verifies one triple on the mini-machine, then on the real pipeline.
func (h *DiffHarness) Check(p Pattern, words int, cfg clank.Config, sched Schedule) error {
	if err := h.Checker.Check(p, words, cfg, sched); err != nil {
		return err
	}
	if len(p) > h.maxOps {
		return fmt.Errorf("verify: pattern of %d ops exceeds harness budget %d", len(p), h.maxOps)
	}
	if words > diffMaxWords {
		return fmt.Errorf("verify: %d words exceeds the %d-word lowering limit", words, diffMaxWords)
	}
	for _, op := range p {
		if op.Write && op.Val > 0xFF {
			return fmt.Errorf("verify: value %d exceeds the MOV imm8 lowering limit", op.Val)
		}
	}

	img := buildDiffImage(p, h.maxOps)
	m, err := h.machine(cfg, img)
	if err != nil {
		return err
	}
	h.cur = &diffSchedule{sched: sched}
	stats, err := m.Run()
	h.cur = nil
	if err != nil {
		return fmt.Errorf("full-stack config %s sched %v: %w", cfg, sched, err)
	}
	if !stats.Completed {
		return fmt.Errorf("full-stack config %s sched %v: run did not complete", cfg, sched)
	}

	if err := compareAgainstOracle(stats, m, p, words); err != nil {
		return fmt.Errorf("full-stack config %s sched %v: %w", cfg, sched, err)
	}
	return nil
}

// compareAgainstOracle checks a completed pipeline run against the
// continuous oracle: the committed output stream must equal the oracle's
// read history exactly (the output-commit bracketing permits no stuttering
// on these programs), and every pattern word of the final NV image must
// match the oracle's final store. Shared by the differential and
// crash-consistency harnesses, which prefix a failure with the run's
// description.
func compareAgainstOracle(stats intermittent.Stats, m *intermittent.Machine, p Pattern, words int) error {
	oracleReads, oracleFinal := Oracle(p, words)
	if len(stats.Outputs) != len(oracleReads) {
		return fmt.Errorf("%d outputs, oracle has %d reads", len(stats.Outputs), len(oracleReads))
	}
	for j, want := range oracleReads {
		if stats.Outputs[j] != want {
			return fmt.Errorf("output %d = %d, oracle read is %d", j, stats.Outputs[j], want)
		}
	}
	for w, want := range oracleFinal {
		if got := m.MemWord(diffDataBase + uint32(w)*4); got != want {
			return fmt.Errorf("final mem[%d] = %d, oracle says %d", w, got, want)
		}
	}
	return nil
}

// machine returns the cached per-configuration machine rebooted into img.
func (h *DiffHarness) machine(cfg clank.Config, img *ccc.Image) (*intermittent.Machine, error) {
	key := fmt.Sprintf("%+v", cfg)
	if m, ok := h.machines[key]; ok {
		return m, m.Reboot(img)
	}
	tcfg, err := translateDiffConfig(cfg, h.maxOps)
	if err != nil {
		return nil, err
	}
	m, err := intermittent.NewMachine(img, intermittent.Options{
		Config:          tcfg,
		Verify:          true,
		FailAfterAccess: h.hook,
	})
	if err != nil {
		return nil, err
	}
	h.machines[key] = m
	return m, nil
}

// translateDiffConfig rebases the mini address-space configuration onto the
// lowered layout: a mini TEXT segment [0,te) covers mini words 0..te/4-1,
// which live at diffDataBase, so the real segment is [diffDataBase,
// diffDataBase+te). The rebase preserves Address Prefix Buffer behavior
// because diffDataBase>>2 is aligned far beyond any PrefixLowBits the
// harness meets: equal mini prefixes stay equal, distinct stay distinct.
// The log and epilogue instructions are registered as ExemptPCs.
func translateDiffConfig(cfg clank.Config, maxOps int) (clank.Config, error) {
	out := cfg
	if cfg.TextEnd != 0 {
		if cfg.TextStart != 0 {
			return out, fmt.Errorf("verify: lowering requires TextStart=0, have %#x", cfg.TextStart)
		}
		out.TextStart = diffDataBase
		out.TextEnd = diffDataBase + cfg.TextEnd
	}
	exempt := make(map[uint32]bool, 2*maxOps)
	for i := 0; i < maxOps; i++ {
		exempt[diffBlockBase+uint32(i)*8+2] = true      // read block's log store
		exempt[diffEpilogue(maxOps)+uint32(i)*4] = true // epilogue's log load
	}
	out.ExemptPCs = exempt
	return out, nil
}

// Thumb-1 encodings used by the lowering.
func t1MovImm(rd, imm uint32) uint16     { return uint16(0x2000 | rd<<8 | imm) }
func t1LslImm(rd, rm, sh uint32) uint16  { return uint16(sh<<6 | rm<<3 | rd) }
func t1LdrImm(rt, rn, off uint32) uint16 { return uint16(0x6800 | off<<6 | rn<<3 | rt) }
func t1StrImm(rt, rn, off uint32) uint16 { return uint16(0x6000 | off<<6 | rn<<3 | rt) }

const (
	t1Nop  = 0xBF00
	t1Bkpt = 0xBE00

	// diffBlockBase is where op blocks start: past the 6-instruction
	// register setup (r0=data base, r1=log base, r2=output port).
	diffBlockBase uint32 = 12
)

// diffEpilogue is the address of the log-replay epilogue for a given op
// budget.
func diffEpilogue(maxOps int) uint32 { return diffBlockBase + uint32(maxOps)*8 }

// buildDiffImage lowers p into a Thumb-1 image with the fixed block layout
// documented above. Patterns shorter than maxOps pad with NOP blocks so the
// epilogue address — and with it the ExemptPCs set — depends only on the
// budget.
func buildDiffImage(p Pattern, maxOps int) *ccc.Image {
	text := make([]byte, 0, int(diffEpilogue(maxOps))+4*maxOps+2)
	emit := func(ins uint16) { text = append(text, byte(ins), byte(ins>>8)) }

	emit(t1MovImm(0, diffDataBase>>8))
	emit(t1LslImm(0, 0, 8))
	emit(t1MovImm(1, diffLogBase>>9))
	emit(t1LslImm(1, 1, 9))
	emit(t1MovImm(2, 0x40)) // output port 0x4000_0000
	emit(t1LslImm(2, 2, 24))

	reads := 0
	for _, op := range p {
		if op.Write {
			emit(t1MovImm(3, op.Val))
			emit(t1Nop)
			emit(t1StrImm(3, 0, op.Word))
			emit(t1Nop)
		} else {
			emit(t1LdrImm(3, 0, op.Word))
			emit(t1StrImm(3, 1, uint32(reads)))
			emit(t1Nop)
			emit(t1Nop)
			reads++
		}
	}
	for i := len(p); i < maxOps; i++ {
		emit(t1Nop)
		emit(t1Nop)
		emit(t1Nop)
		emit(t1Nop)
	}
	for j := 0; j < reads; j++ {
		emit(t1LdrImm(3, 1, uint32(j)))
		emit(t1StrImm(3, 2, 0))
	}
	emit(t1Bkpt)

	return &ccc.Image{
		Bytes:     text,
		TextStart: 0,
		TextEnd:   uint32(len(text)),
		DataStart: diffDataBase,
		DataEnd:   diffLogBase + uint32(maxOps)*4,
		Entry:     0,
		InitialSP: diffDataBase - 4,
	}
}
