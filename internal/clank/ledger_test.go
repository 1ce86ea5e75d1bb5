package clank

import (
	"testing"

	"repro/internal/power"
)

// TestLedger steps the run-time state machine through the policy edges
// both engines depend on. After every step it checks the step's return
// value, the since-checkpoint clock, the horizon (with no watchdog armed,
// the power left), the due watchdog and whether power is out; the run's
// Counters are checked at the end.
func TestLedger(t *testing.T) {
	type step struct {
		op      string // spend | overhead (charged to RestartCycles) | cut | boot | ckpt
		n       uint64 // spend/overhead cycles
		reason  Reason // ckpt cause
		ret     int    // spend/overhead: 1 = survived, 0 = died; boot: consecutive barren boots
		since   uint64
		horizon uint64
		due     Reason
		off     bool
	}
	cases := []struct {
		name       string
		on         uint64 // every boot's budget
		perf, prog uint64 // watchdog load values
		steps      []step
		want       Counters
	}{
		{
			name: "spend clamped exactly at the outage",
			on:   10,
			steps: []step{
				{op: "spend", n: 4, ret: 1, since: 4, horizon: 6},
				// The clamped cycles count toward the since-checkpoint clock.
				{op: "spend", n: 6, ret: 0, since: 10, off: true},
			},
			want: Counters{WallCycles: 10},
		},
		{
			name: "boot equal to the restart cost is barren",
			on:   60,
			steps: []step{
				{op: "spend", n: 60, ret: 0, since: 60, off: true},
				{op: "boot", ret: 0, horizon: 60}, // the first boot counts as progress
				{op: "overhead", n: 60, ret: 0, off: true},
				{op: "boot", ret: 1, horizon: 60},
				{op: "overhead", n: 59, ret: 1, horizon: 1},
			},
			want: Counters{WallCycles: 179, RestartCycles: 119, Restarts: 2, BarrenBoots: 1},
		},
		{
			name: "progress watchdog arms, halves, floors at 2 and disarms",
			on:   1000,
			prog: 16,
			steps: []step{
				{op: "cut", off: true},
				{op: "boot", ret: 0, horizon: 1000},
				{op: "cut", off: true},
				{op: "boot", ret: 1, horizon: 16},
				{op: "spend", n: 16, ret: 1, since: 16, due: ReasonProgWatchdog},
				{op: "cut", since: 16, due: ReasonProgWatchdog, off: true},
				{op: "boot", ret: 2, horizon: 8},
				{op: "cut", off: true},
				{op: "boot", ret: 3, horizon: 4},
				{op: "cut", off: true},
				{op: "boot", ret: 4, horizon: 2},
				{op: "cut", off: true},
				{op: "boot", ret: 5, horizon: 2},
				{op: "ckpt", reason: ReasonProgWatchdog, horizon: 1000},
				{op: "cut", off: true},
				{op: "boot", ret: 0, horizon: 1000},
				// The linearization cleared the load: the next barren boot
				// re-arms at the default.
				{op: "cut", off: true},
				{op: "boot", ret: 1, horizon: 16},
			},
			want: Counters{WallCycles: 16, Checkpoints: 1, Restarts: 8, BarrenBoots: 6, ProgWatchdogs: 1,
				Reasons: ReasonCounts{ReasonProgWatchdog: 1}},
		},
		{
			name: "performance watchdog due at sinceCkpt >= w",
			on:   1000,
			perf: 100,
			steps: []step{
				{op: "spend", n: 99, ret: 1, since: 99, horizon: 1},
				{op: "spend", n: 1, ret: 1, since: 100, due: ReasonPerfWatchdog},
				{op: "ckpt", reason: ReasonPerfWatchdog, horizon: 100},
				{op: "ckpt", reason: ReasonNone, horizon: 100},
			},
			want: Counters{WallCycles: 100, Checkpoints: 2, PerfWatchdogs: 1,
				Reasons: ReasonCounts{ReasonPerfWatchdog: 1}},
		},
		{
			name: "progress resets the consecutive-barren count",
			on:   1000,
			steps: []step{
				{op: "cut", off: true},
				{op: "boot", ret: 0, horizon: 1000},
				{op: "cut", off: true},
				{op: "boot", ret: 1, horizon: 1000},
				{op: "cut", off: true},
				{op: "boot", ret: 2, horizon: 1000},
				{op: "ckpt", reason: ReasonOutput, horizon: 1000},
				{op: "cut", off: true},
				{op: "boot", ret: 0, horizon: 1000},
				{op: "cut", off: true},
				{op: "boot", ret: 1, horizon: 1000},
			},
			want: Counters{Checkpoints: 1, Restarts: 5, BarrenBoots: 3,
				Reasons: ReasonCounts{ReasonOutput: 1}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			supply := power.NewSupply(power.Fixed{Cycles: c.on}, 1)
			l := NewLedger(c.perf, c.prog)
			l.PowerOn(supply)
			for i, s := range c.steps {
				ret := -1
				switch s.op {
				case "spend":
					ret = b2i(l.Spend(s.n))
				case "overhead":
					ret = b2i(l.SpendOverhead(s.n, &l.RestartCycles))
				case "cut":
					l.Cut()
				case "boot":
					ret = l.Boot(supply)
				case "ckpt":
					l.Linearized(s.reason)
				default:
					t.Fatalf("step %d: unknown op %q", i, s.op)
				}
				if ret >= 0 && ret != s.ret {
					t.Errorf("step %d (%s %d): returned %d, want %d", i, s.op, s.n, ret, s.ret)
				}
				if got := l.SinceCkpt(); got != s.since {
					t.Errorf("step %d (%s %d): since checkpoint %d, want %d", i, s.op, s.n, got, s.since)
				}
				if got := l.Horizon(); got != s.horizon {
					t.Errorf("step %d (%s %d): horizon %d, want %d", i, s.op, s.n, got, s.horizon)
				}
				if got := l.WatchdogDue(); got != s.due {
					t.Errorf("step %d (%s %d): due %v, want %v", i, s.op, s.n, got, s.due)
				}
				if l.Off() != s.off {
					t.Errorf("step %d (%s %d): off %v, want %v", i, s.op, s.n, l.Off(), s.off)
				}
			}
			if l.Counters != c.want {
				t.Errorf("counters %+v, want %+v", l.Counters, c.want)
			}
		})
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
