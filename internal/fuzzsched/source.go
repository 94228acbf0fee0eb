package fuzzsched

import (
	"fmt"
	"strings"

	"deepmc/internal/faultinj"
	"deepmc/internal/interp"
	"deepmc/internal/ir"
)

// fireRate is the faultinj rate used for genome-driven schedules: a
// tape byte's value decides fire (< 128) or skip (>= 128), putting
// every individual injection decision under mutation control.  (With
// rate 1.0 every live byte would fire; 0.5 makes the high bit the
// fire/skip switch.)
const fireRate = 0.5

// tapeSource implements faultinj.Source over a genome's byte tape.
// Every decision consumes tape bytes in event order; when the tape is
// exhausted the source returns never-fire / identity decisions, so the
// schedule's injection count is bounded by the tape length and the
// decision stream is a pure function of the genome.
type tapeSource struct {
	tape []byte
	pos  int
}

func (t *tapeSource) next() (byte, bool) {
	if t.pos >= len(t.tape) {
		return 0, false
	}
	b := t.tape[t.pos]
	t.pos++
	return b, true
}

// Float64 maps one tape byte onto [0, 1); an exhausted tape returns 1.0
// — deliberately outside the Source contract's range — so Fire's
// `draw < rate` comparison can never pass and injection stops.
func (t *tapeSource) Float64() float64 {
	b, ok := t.next()
	if !ok {
		return 1.0
	}
	return float64(b) / 256.0
}

// Intn maps one tape byte onto [0, n); exhausted tapes return 0.
func (t *tapeSource) Intn(n int) int {
	if n <= 1 {
		return 0
	}
	b, ok := t.next()
	if !ok {
		return 0
	}
	return int(b) % n
}

// Perm builds a permutation of [0, n) by Fisher–Yates over tape draws;
// an exhausted tape degenerates to the identity permutation.
func (t *tapeSource) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := t.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

var _ faultinj.Source = (*tapeSource)(nil)

// Injector turns a genome into a crashsim.Injector: wrapping a hook
// stack arms (outermost to innermost) the delay layer — which defers
// the flushes at the genome's delay choice points to the next fence —
// over a faultinj schedule whose decisions are drawn from the genome
// tape.  Each Wrap builds a fresh decoration (fresh tape position,
// fresh schedule), so one Injector can drive several executions of the
// same schedule; Injections/Log report the most recent execution.
type Injector struct {
	g     *Genome
	sched *faultinj.Schedule
	delay *delayHooks
}

// NewInjector builds an injector for g.  The genome is cloned; later
// mutations of g do not affect the injector.
func NewInjector(g *Genome) *Injector {
	return &Injector{g: g.Clone()}
}

// Wrap decorates inner with the genome schedule.  The returned hooks
// implement interp.StepObserver and interp.ChoicePointer, so the
// decoration can be installed wherever inner could (the crashsim
// planner needs OnStep; the delay layer needs choice points).
func (inj *Injector) Wrap(inner interp.Hooks) interp.Hooks {
	cfg := faultinj.Config{Classes: inj.g.ArmedClasses(), Rate: fireRate}
	inj.sched = faultinj.NewWithSource(cfg, &tapeSource{tape: inj.g.Tape})
	fh := faultinj.Wrap(inner, inj.sched)
	d := &delayHooks{Hooks: fh}
	d.obs, _ = fh.(interp.StepObserver)
	d.delaySet = make(map[uint32]bool, len(inj.g.Delays))
	for _, s := range inj.g.Delays {
		d.delaySet[s] = true
	}
	inj.delay = d
	return d
}

// Injections counts the most recent execution's injected events:
// faultinj records plus delayed flushes.
func (inj *Injector) Injections() int {
	n := 0
	if inj.sched != nil {
		n += inj.sched.Injections()
	}
	if inj.delay != nil {
		n += inj.delay.delayed
	}
	return n
}

// Log renders the most recent execution's byte-replayable injection
// log: the faultinj record log followed by one line per delayed flush.
// Two executions of the same genome over the same program produce
// byte-identical Logs — the witness replay gate asserts exactly that.
func (inj *Injector) Log() string {
	var b strings.Builder
	if inj.sched != nil {
		b.WriteString(inj.sched.Log())
	}
	if inj.delay != nil {
		b.WriteString(inj.delay.log.String())
	}
	return b.String()
}

// delayHooks is the outermost decoration: it watches choice points
// (interp.ChoicePointer) and, when a flush instruction's own choice
// ordinal is in the genome's delay set, withholds the OnFlush event
// until immediately before the next OnFence — modeling a clwb whose
// completion lags to the drain (PMRace's active delay injection; legal
// because sfence still guarantees completion).  Flushes still pending
// at the end of the run are never delivered: a clwb with no subsequent
// sfence has no durability guarantee to preserve.  Every other event
// passes straight through to the embedded inner hook set.
type delayHooks struct {
	interp.Hooks
	obs      interp.StepObserver
	delaySet map[uint32]bool

	curSeq  uint32 // ordinal of the in-flight choice point
	pending []delayedFlush
	delayed int
	log     strings.Builder
}

type delayedFlush struct {
	obj  *interp.Object
	off  int
	size int
	at   *ir.Site
}

var (
	_ interp.Hooks         = (*delayHooks)(nil)
	_ interp.StepObserver  = (*delayHooks)(nil)
	_ interp.ChoicePointer = (*delayHooks)(nil)
)

// OnChoicePoint fires before each schedule-relevant instruction; the
// recorded ordinal addresses the instruction for the delay set.
func (d *delayHooks) OnChoicePoint(seq int, _ ir.Op, _ *ir.Site) {
	d.curSeq = uint32(seq)
}

func (d *delayHooks) OnFlush(obj *interp.Object, off, size int, at *ir.Site) {
	if d.delaySet[d.curSeq] && obj != nil && obj.Persistent {
		d.delayed++
		d.pending = append(d.pending, delayedFlush{obj, off, size, at})
		fmt.Fprintf(&d.log, "delay #%d clwb obj#%d+%d size=%d @ choice %d (%s) deferred to next fence\n",
			d.delayed, obj.ID, off, size, d.curSeq, at)
		return
	}
	d.Hooks.OnFlush(obj, off, size, at)
}

// OnFence delivers the deferred flushes first, so they stage and drain
// at this fence exactly as a lagging clwb would.
func (d *delayHooks) OnFence(at *ir.Site) {
	for _, e := range d.pending {
		d.Hooks.OnFlush(e.obj, e.off, e.size, e.at)
	}
	d.pending = d.pending[:0]
	d.Hooks.OnFence(at)
}

func (d *delayHooks) OnStep(step int, op ir.Op) {
	if d.obs != nil {
		d.obs.OnStep(step, op)
	}
}
