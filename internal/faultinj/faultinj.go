// Package faultinj injects adversarial-but-legal NVM persistency
// behavior into instrumented executions.  Every fault class models
// something the clwb/sfence contract permits real hardware to do:
//
//   - TornWrite: a multi-word persistent store persists only some of
//     its 8-byte granules before the crash (the cache evicted part of
//     the line early).  Dirty lines may persist at any time, so this
//     is legal; it is adversarial because recovery code that assumes a
//     memset-style initialization lands atomically will observe a torn
//     prefix.
//   - DroppedFlush: a clwb is transiently dropped and re-issued by the
//     hardware when the next sfence drains — the fence's durability
//     guarantee is preserved, but between the drop and the fence the
//     line is dirty rather than staged, widening the crash surface.
//   - ReorderedPersist: the drain triggered by an sfence retires staged
//     lines in an arbitrary order, exposing mid-drain crash states in
//     which a scrambled subset of the staged set is durable.
//   - DelayedDrain: the drain lags — mid-drain crash states expose only
//     a canonical-order prefix of the staged set, and the simulated
//     fence latency grows.
//
// Because every class stays inside the contract, a correct (fixed)
// program must remain violation-free under injection while a buggy one
// must still be caught: that pair of properties is the differential
// gate (corpus.FaultDifferential).
//
// Injection decisions are drawn from a single seeded RNG consumed in
// event order.  The instrumented interpreter is single-threaded per
// run, so the decision sequence — and the injection log — is a pure
// function of (seed, event stream): re-running the same program with
// the same Config replays byte-identical faults.  Clients that drive one
// pool concurrently perturb its event order, so their faults replay
// only as far as that order does.
package faultinj

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// Class identifies one fault class.
type Class uint8

const (
	TornWrite Class = iota
	DroppedFlush
	ReorderedPersist
	DelayedDrain
	numClasses
)

func (c Class) String() string {
	switch c {
	case TornWrite:
		return "torn"
	case DroppedFlush:
		return "dropped"
	case ReorderedPersist:
		return "reordered"
	case DelayedDrain:
		return "delayed"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// AllClasses returns every fault class.
func AllClasses() []Class {
	return []Class{TornWrite, DroppedFlush, ReorderedPersist, DelayedDrain}
}

// ParseClasses parses a comma-separated class list ("torn,dropped"),
// "all", or "" (no classes).
func ParseClasses(s string) ([]Class, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return nil, nil
	}
	if s == "all" {
		return AllClasses(), nil
	}
	var out []Class
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "torn":
			out = append(out, TornWrite)
		case "dropped":
			out = append(out, DroppedFlush)
		case "reordered":
			out = append(out, ReorderedPersist)
		case "delayed":
			out = append(out, DelayedDrain)
		default:
			return nil, fmt.Errorf("faultinj: unknown fault class %q (want torn|dropped|reordered|delayed|all)", strings.TrimSpace(part))
		}
	}
	return out, nil
}

// Config selects the classes to inject and seeds the schedule.
type Config struct {
	// Classes lists the enabled fault classes; empty disables injection.
	Classes []Class
	// Rate is the probability an eligible event is injected; values
	// outside (0, 1] mean 1.0 (inject every eligible event).
	Rate float64
	// Seed seeds the schedule RNG.  The same (Config, program, inputs)
	// triple replays byte-identical injections.
	Seed int64
}

// Record is one injected fault, in injection order.
type Record struct {
	Seq    int // 1-based ordinal among this schedule's injections
	Class  Class
	Site   string // "fn file:line" of the instruction the fault hit
	Detail string // class-specific rendering of the decision taken
}

func (r Record) String() string {
	return fmt.Sprintf("#%d %s @ %s: %s", r.Seq, r.Class, r.Site, r.Detail)
}

// Source supplies the decision stream a Schedule draws from.  The
// default source is a seeded *rand.Rand (which satisfies Source
// natively); the schedule fuzzer substitutes a genome byte tape so that
// every injection decision — which classes fire where, which drain
// orders a fence exposes — becomes fuzzer-mutable state instead of
// derived randomness.  Implementations must be deterministic: the same
// source state and call sequence must yield the same decisions, or
// schedules stop being replayable.
type Source interface {
	// Float64 returns a decision draw in [0, 1).
	Float64() float64
	// Intn returns a uniform draw in [0, n); n >= 1.
	Intn(n int) int
	// Perm returns a permutation of [0, n).
	Perm(n int) []int
}

var _ Source = (*rand.Rand)(nil)

// Schedule draws injection decisions for one execution.  Use a fresh
// Schedule (same Config) for every execution that must replay the same
// faults — for example the crash simulator's planning run.  Not safe
// for concurrent use; the instrumented interpreter is single-threaded.
type Schedule struct {
	enabled [numClasses]bool
	rate    float64
	src     Source
	records []Record
	perCls  [numClasses]int
}

// New builds a Schedule from cfg, drawing decisions from a fresh RNG
// seeded with cfg.Seed.  The RNG replays the seed's memoized stream
// (see streamOf), so its decisions are exactly those of
// rand.New(rand.NewSource(cfg.Seed)) without the cost of seeding it.
func New(cfg Config) *Schedule {
	return NewWithSource(cfg, rand.New(newMemoSource(cfg.Seed)))
}

// The memo of seeded streams holds the first memoPrefix values of at
// most memoSeeds seeds.  The crash simulator builds one schedule per
// execution, all from the same seed, and each execution draws far fewer
// than memoPrefix values; seeding a math/rand generator costs more than
// such a whole execution draws.
const (
	memoSeeds  = 4
	memoPrefix = 256
)

// streams memoizes, per seed, the first memoPrefix raw values of
// math/rand's generator.  A prefix is filled once and then only read,
// so schedules on any goroutine share it.  A new seed that finds the
// memo full empties it first.
var streams struct {
	sync.Mutex
	prefix map[int64][]uint64
}

// streamOf returns seed's memoized stream prefix, filling it on first
// use.
func streamOf(seed int64) []uint64 {
	streams.Lock()
	defer streams.Unlock()
	if p, ok := streams.prefix[seed]; ok {
		return p
	}
	if streams.prefix == nil || len(streams.prefix) == memoSeeds {
		streams.prefix = make(map[int64][]uint64, memoSeeds)
	}
	src := rand.NewSource(seed).(rand.Source64)
	p := make([]uint64, memoPrefix)
	for i := range p {
		p[i] = src.Uint64()
	}
	streams.prefix[seed] = p
	return p
}

// memoSource is a rand.Source64 that yields the same values as
// rand.NewSource(seed): first from seed's shared memoized prefix, then,
// past it, from a private generator advanced to the same position.
type memoSource struct {
	seed   int64
	prefix []uint64
	pos    int
	tail   rand.Source64 // nil until the prefix is used up
}

func newMemoSource(seed int64) *memoSource {
	return &memoSource{seed: seed, prefix: streamOf(seed)}
}

// Uint64 returns the next raw value of the seed's stream.
func (m *memoSource) Uint64() uint64 {
	if m.pos < len(m.prefix) {
		v := m.prefix[m.pos]
		m.pos++
		return v
	}
	if m.tail == nil {
		m.tail = rand.NewSource(m.seed).(rand.Source64)
		for range m.prefix {
			m.tail.Uint64()
		}
	}
	return m.tail.Uint64()
}

// Int63 masks the next raw value, as math/rand's own source does.
func (m *memoSource) Int63() int64 { return int64(m.Uint64() &^ (1 << 63)) }

// Seed restarts the stream at seed's first value.
func (m *memoSource) Seed(seed int64) { *m = *newMemoSource(seed) }

// NewWithSource builds a Schedule whose decisions come from src instead
// of cfg.Seed's RNG (cfg.Seed is ignored then).  Replays are
// byte-identical iff src replays the same decision stream.
func NewWithSource(cfg Config, src Source) *Schedule {
	s := &Schedule{rate: cfg.Rate, src: src}
	if s.rate <= 0 || s.rate > 1 {
		s.rate = 1
	}
	for _, cl := range cfg.Classes {
		if cl < numClasses {
			s.enabled[cl] = true
		}
	}
	return s
}

// Fire decides whether to inject cl at the current eligible event.  It
// consumes source state only when the class is enabled, keeping the
// decision stream a pure function of (source, event stream).
func (s *Schedule) Fire(cl Class) bool {
	if !s.enabled[cl] {
		return false
	}
	return s.src.Float64() < s.rate
}

// Intn draws a uniform int in [0, n) from the schedule source.
func (s *Schedule) Intn(n int) int { return s.src.Intn(n) }

// Perm draws a permutation of [0, n) from the schedule source.
func (s *Schedule) Perm(n int) []int { return s.src.Perm(n) }

// Subset draws a nonempty proper subset of {0..n-1} (n >= 2), returned
// sorted.
func (s *Schedule) Subset(n int) []int {
	k := 1 + s.src.Intn(n-1)
	sel := append([]int(nil), s.src.Perm(n)[:k]...)
	sort.Ints(sel)
	return sel
}

// Record appends an injection to the log.
func (s *Schedule) Record(cl Class, site, detail string) {
	s.perCls[cl]++
	s.records = append(s.records, Record{Seq: len(s.records) + 1, Class: cl, Site: site, Detail: detail})
}

// Records returns the injection log in injection order.
func (s *Schedule) Records() []Record { return s.records }

// Injections returns the total number of injected faults.
func (s *Schedule) Injections() int { return len(s.records) }

// InjectionsOf returns how many faults of cl were injected.
func (s *Schedule) InjectionsOf(cl Class) int {
	if cl >= numClasses {
		return 0
	}
	return s.perCls[cl]
}

// Log renders the injection log, one record per line.  Two executions
// replay identically iff their Logs are byte-identical.
func (s *Schedule) Log() string {
	var b strings.Builder
	for _, r := range s.records {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
