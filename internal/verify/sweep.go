package verify

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/clank"
	"repro/internal/pool"
)

// Sweep is the production sweep over (pattern, configuration, schedule)
// triples: the bounded-model-checking run of paper section 5, deepened by
// symmetry pruning and spread over a deterministic worker pool.
//
// Sharding: the canonical pattern space of each configuration group is
// split by enumeration prefix (the first PrefixDepth ops). Shards are
// numbered in enumeration order and each shard expands to the same pattern
// sequence on every run and every worker count, so a counterexample's
// (shard, seq) coordinates are reproducible. Workers pull shard indices
// through pool.Run; scheduling affects only which worker visits a shard,
// never what the shard contains.
type Sweep struct {
	N     int // pattern length (the bound)
	Words int // address-space size in words
	Vals  int // written values drawn from 1..Vals

	// Configs is the hardware family; nil means StandardConfigs.
	Configs []clank.Config
	// Schedules is the failure-schedule family applied to every pattern and
	// configuration; nil means continuous power plus every single-failure
	// position (FailAt(-1), FailAt(0..N+1)), the family of the original
	// exhaustive test.
	Schedules []Schedule

	// Canonical enables symmetry pruning: configurations are grouped by
	// their Symmetry and only canonical representative patterns are
	// checked (see symmetry.go for the soundness argument).
	Canonical bool

	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// PrefixDepth is the shard granularity; 0 means min(2, N).
	PrefixDepth int

	// MakeCheck builds each worker's verdict function; nil means the
	// mini-machine's Check. The full-stack sweeps plug a Harness's Check or
	// CheckCommits in here (one harness per worker; harnesses are not
	// concurrency-safe), and the meta-tests a Checker around a broken
	// detector.
	MakeCheck func() CheckFunc

	// CollectAll disables early abort and gathers every failing triple in
	// Stats.Findings instead of stopping at the first (the prune-soundness
	// meta-test compares complete finding sets).
	CollectAll bool
	// NoShrink reports the raw first counterexample without minimizing it.
	NoShrink bool
}

// Finding is one failing (pattern, configuration, schedule) triple with its
// reproducible sweep coordinates.
type Finding struct {
	Shard, Seq int // shard index and pattern sequence number within it
	Pattern    Pattern
	Config     clank.Config
	Schedule   Schedule
	Err        error
}

// Stats summarizes a sweep.
type Stats struct {
	Patterns int64 // patterns checked (canonical representatives when pruning)
	Runs     int64 // individual Check invocations
	Shards   int
	Groups   int // configuration symmetry groups

	// Findings holds every failure in (Shard, Seq) order when CollectAll
	// is set; otherwise it holds at most the one reported failure.
	Findings []Finding
}

// group is one symmetry-equivalence class of configurations: all members
// share the class vector, so one canonical enumeration serves them all.
type group struct {
	sym     Symmetry
	configs []clank.Config
}

// shardWork is one unit for the pool: a pattern prefix within a group.
type shardWork struct {
	index  int
	group  *group
	prefix Pattern
}

// Run executes the sweep. The returned error is nil when every triple
// passes; otherwise it is a *CounterExample holding the (shrunk, unless
// NoShrink) minimal reproducer of the earliest-coordinate failure found.
// With CollectAll the error covers the earliest finding but Stats.Findings
// has them all.
func (s *Sweep) Run() (Stats, error) {
	configs := s.Configs
	if configs == nil {
		configs = StandardConfigs()
	}
	schedules := s.Schedules
	if schedules == nil {
		schedules = append(schedules, FailAt(-1))
		for f := 0; f < s.N+2; f++ {
			schedules = append(schedules, FailAt(f))
		}
	}
	depth := s.PrefixDepth
	if depth <= 0 {
		depth = 2
	}
	if depth > s.N {
		depth = s.N
	}

	groups := s.groupConfigs(configs)
	work := buildShards(s.N, s.Words, s.Vals, depth, groups)

	var (
		stats    Stats
		patterns atomic.Int64
		runs     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		findings []Finding
	)
	stats.Shards = len(work)
	stats.Groups = len(groups)

	pool.Run(len(work), s.Workers, func(next func() (int, bool)) {
		check := s.makeCheck()
		for !stop.Load() {
			idx, ok := next()
			if !ok {
				return
			}
			w := work[idx]
			seq := 0
			var local []Finding
			e := &enumerator{
				n: s.N, words: s.Words, vals: s.Vals,
				sym:       w.group.sym,
				canonical: s.Canonical && !isIdentity(w.group.sym),
				p:         make(Pattern, s.N),
				wordUsed:  make([]bool, s.Words),
				valUsed:   make([]bool, s.Vals+1),
			}
			e.replay(w.prefix)
			e.fn = func(p Pattern) error {
				mySeq := seq
				seq++
				if stop.Load() {
					return errAborted
				}
				patterns.Add(1)
				for _, cfg := range w.group.configs {
					for _, sched := range schedules {
						runs.Add(1)
						if err := check(p, s.Words, cfg, sched); err != nil {
							local = append(local, Finding{
								Shard: w.index, Seq: mySeq,
								Pattern:  append(Pattern(nil), p...),
								Config:   cfg,
								Schedule: sched,
								Err:      err,
							})
							if !s.CollectAll {
								stop.Store(true)
								return errAborted
							}
						}
					}
				}
				return nil
			}
			_ = e.rec(len(w.prefix))
			if len(local) > 0 {
				// One batch per shard: a stable sort on (Shard, Seq) then
				// preserves the in-shard check order for equal coordinates
				// (one pattern can fail under several config/schedule
				// pairs), keeping findings byte-identical at any worker
				// count.
				mu.Lock()
				findings = append(findings, local...)
				mu.Unlock()
			}
		}
	})

	stats.Patterns = patterns.Load()
	stats.Runs = runs.Load()
	sort.SliceStable(findings, func(i, j int) bool {
		if findings[i].Shard != findings[j].Shard {
			return findings[i].Shard < findings[j].Shard
		}
		return findings[i].Seq < findings[j].Seq
	})
	stats.Findings = findings
	if len(findings) == 0 {
		return stats, nil
	}
	return stats, s.report(findings[0])
}

var errAborted = fmt.Errorf("verify: sweep aborted")

func (s *Sweep) makeCheck() CheckFunc {
	if s.MakeCheck != nil {
		return s.MakeCheck()
	}
	return Check
}

// report turns the earliest finding into the sweep's error, shrinking the
// reproducer first unless disabled.
func (s *Sweep) report(f Finding) error {
	ce := &CounterExample{
		Pattern:  f.Pattern,
		Words:    s.Words,
		Config:   f.Config,
		Schedule: f.Schedule,
		Shard:    f.Shard,
		Seq:      f.Seq,
		Err:      f.Err,
	}
	if s.NoShrink {
		return ce
	}
	check := s.makeCheck()
	fails := func(p Pattern, words int, cfg clank.Config, sched Schedule) bool {
		return check(p, words, cfg, sched) != nil
	}
	ce.Pattern, ce.Words, ce.Config, ce.Schedule = Shrink(fails, f.Pattern, s.Words, f.Config, f.Schedule)
	ce.Err = check(ce.Pattern, ce.Words, ce.Config, ce.Schedule)
	ce.Shrunk = true
	return ce
}

// groupConfigs buckets the configurations by symmetry class vector; without
// Canonical the whole family forms one identity-symmetry group (no
// pruning, single shared enumeration).
func (s *Sweep) groupConfigs(configs []clank.Config) []*group {
	if !s.Canonical {
		return []*group{{sym: IdentitySymmetry(s.Words), configs: configs}}
	}
	var order []string
	byKey := make(map[string]*group)
	for _, cfg := range configs {
		sym := ConfigSymmetry(cfg, s.Words)
		k := sym.key()
		g, ok := byKey[k]
		if !ok {
			g = &group{sym: sym}
			byKey[k] = g
			order = append(order, k)
		}
		g.configs = append(g.configs, cfg)
	}
	out := make([]*group, len(order))
	for i, k := range order {
		out[i] = byKey[k]
	}
	return out
}

// buildShards enumerates each group's canonical prefixes at the shard
// depth, in group order then enumeration order — the deterministic
// shard->pattern mapping.
func buildShards(n, words, vals, depth int, groups []*group) []shardWork {
	var work []shardWork
	for _, g := range groups {
		var prefixes []Pattern
		e := &enumerator{
			n: n, words: words, vals: vals,
			sym:          g.sym,
			canonical:    !isIdentity(g.sym),
			p:            make(Pattern, n),
			wordUsed:     make([]bool, words),
			valUsed:      make([]bool, vals+1),
			collect:      &prefixes,
			collectDepth: depth,
		}
		_ = e.rec(0)
		for _, pre := range prefixes {
			work = append(work, shardWork{index: len(work), group: g, prefix: pre})
		}
	}
	return work
}
