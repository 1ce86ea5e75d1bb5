package power

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"os"
	"strconv"
	"strings"
)

// Trace replays a recorded sequence of power-on durations — e.g. one
// captured from a real harvesting frontend — instead of drawing from a
// statistical model. The paper's evaluation characterizes environments by
// mean on-time; a trace lets the simulator re-live one specific measured
// environment, boot for boot.
//
// When the recording runs out the trace wraps to the beginning, so an
// intermittent run that needs more boots than the capture held keeps
// going (recordings are finite, experiments are not). Use Remaining to
// detect wrap-around if an experiment must stay within one pass.
type Trace struct {
	ons  []uint64
	next int
	laps int
}

// NewTrace builds a trace from explicit on-durations (in cycles). It
// rejects an empty recording (a supply that can never turn on) and a zero
// on-time (a boot that cannot even pay for itself would hang the restart
// loop silently).
func NewTrace(ons []uint64) (*Trace, error) {
	if len(ons) == 0 {
		return nil, fmt.Errorf("power: trace holds no on-durations")
	}
	for i, v := range ons {
		if v == 0 {
			return nil, fmt.Errorf("power: trace entry %d: zero-length on-time", i)
		}
	}
	return &Trace{ons: append([]uint64(nil), ons...)}, nil
}

// NextOn implements Source: it returns the next recorded on-duration,
// wrapping to the start of the recording when exhausted.
func (t *Trace) NextOn() uint64 {
	v := t.ons[t.next]
	t.next++
	if t.next == len(t.ons) {
		t.next = 0
		t.laps++
	}
	return v
}

// Len returns the number of recorded on-durations.
func (t *Trace) Len() int { return len(t.ons) }

// Mean returns the average recorded on-duration in cycles — the trace's
// analogue of a model's Mean parameter, for sizing progress-watchdog
// defaults and reporting.
func (t *Trace) Mean() uint64 {
	var sum uint64
	for _, v := range t.ons {
		sum += v
	}
	return sum / uint64(len(t.ons))
}

// Laps returns how many times the trace has wrapped around.
func (t *Trace) Laps() int { return t.laps }

// Fork returns an independent replay cursor over the same recording,
// starting at entry start modulo the recording length. The fleet engine
// hands device i the cursor start i, so a fleet re-lives one captured
// environment out of phase — every device sees the real recording, no two
// neighbors see it in lockstep. The recorded durations are shared, not
// copied: a Trace never mutates them after construction, so any number of
// forks may replay concurrently as long as each individual fork stays on
// one goroutine (the cursor itself is unsynchronized).
func (t *Trace) Fork(start int) *Trace {
	start %= len(t.ons)
	if start < 0 {
		start += len(t.ons)
	}
	return &Trace{ons: t.ons, next: start}
}

// Reset rewinds the trace to the first recorded duration.
func (t *Trace) Reset() { t.next, t.laps = 0, 0 }

var _ Source = (*Trace)(nil)

// ParseTrace reads a trace recording: one on-duration per line, either a
// bare cycle count ("38000") or a millisecond value with an "ms" suffix
// ("38ms", converted at the model's 1 MHz clock). Blank lines and lines
// starting with '#' are ignored. A duration of 0 is rejected — a boot
// that cannot even pay for itself would hang the restart loop silently,
// which is always a recording error — and so is a duration whose cycle
// count does not fit in 64 bits.
func ParseTrace(r io.Reader) (*Trace, error) {
	var ons []uint64
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		scale := uint64(1)
		if ms, ok := strings.CutSuffix(s, "ms"); ok {
			s, scale = strings.TrimSpace(ms), CyclesPerMilli
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("power: trace line %d: %w", line, err)
		}
		if v == 0 {
			return nil, fmt.Errorf("power: trace line %d: zero-length on-time", line)
		}
		hi, cycles := bits.Mul64(v, scale)
		if hi != 0 {
			return nil, fmt.Errorf("power: trace line %d: on-time overflows the 64-bit cycle count", line)
		}
		ons = append(ons, cycles)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("power: reading trace: %w", err)
	}
	return NewTrace(ons)
}

// LoadTraceFile reads a trace recording from a file (see ParseTrace for
// the format).
func LoadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := ParseTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
