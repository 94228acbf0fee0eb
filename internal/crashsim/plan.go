package crashsim

import (
	"slices"
	"strconv"

	"deepmc/internal/ir"
	"deepmc/internal/pmcontract"
)

// planPoint is one surviving crash candidate from the planning run: the
// step to crash after and a snapshot of the state an invariant would
// observe there.  The snapshot is what makes pruned enumeration O(n)
// instead of O(points x steps): the invariant is checked directly
// against it, with no per-point re-execution.
type planPoint struct {
	step int
	snap *nvmState
	// mid marks a synthetic mid-drain state injected by the
	// reordered-persist / delayed-drain fault classes: a crash imagined
	// inside the sfence at this step, with only part of the staged set
	// durable.  Not reachable by a MaxSteps re-execution.
	mid bool
}

// planner executes the program once with full nvmState tracking and
// records a crash candidate after every step during which a
// persist-relevant hook fired.  Crashing after any other step yields a
// state with an identical key — nothing that feeds checkOutcomes
// (durable words, in-flight words, undo log, touched objects) can
// change without one of these hooks firing — so those steps are pruned
// without running them.  A candidate whose state key an earlier one
// already had is counted in deduped and never snapshotted.
type planner struct {
	*nvmState
	points  []planPoint
	deduped int
	// seen holds the state key of every candidate so far; key is the
	// buffer the next candidate's key is built in.
	seen map[string]struct{}
	key  []byte
	// pendingMid holds mid-drain fault states awaiting attribution to
	// the fence instruction's step index (known only at its OnStep).
	pendingMid []*nvmState
	// drain is OnPartialFence's reused list of staged words.
	drain []int
}

// newPlanner pre-records the empty pre-event image as the step-1 crash
// point: it represents the whole persist-quiet prefix, which the legacy
// enumerator also checks as k = 1.  It must be recorded eagerly rather
// than from OnStep(1), because when main's first instruction is a call
// the callee's steps complete (and report) first — OnStep(1) then fires
// last, with the post-callee state, while a re-execution under
// MaxSteps = 1 stops before the callee runs at all (the empty image).
// Recording eagerly keeps points in ascending step order and keeps the
// step-1 snapshot equal to what a MaxSteps = 1 run observes.  If step 1
// is itself persist-relevant its OnStep records a second step-1 point
// with the true post-step state.
func newPlanner(c pmcontract.Contract) *planner {
	p := &planner{nvmState: newNVMState(c)}
	p.fresh()
	p.points = append(p.points, planPoint{step: 1, snap: p.nvmState.snapshot()})
	return p
}

// fresh reports whether the current state's key is new, recording it if
// so and counting a duplicate otherwise.  Only a new key allocates.
func (p *planner) fresh() bool {
	if p.seen == nil {
		p.seen = make(map[string]struct{})
	}
	p.key = p.appendKey(p.key[:0])
	if _, dup := p.seen[string(p.key)]; dup {
		p.deduped++
		return false
	}
	p.seen[string(p.key)] = struct{}{}
	return true
}

// OnPartialFence (interp.PartialFencer) records the mid-drain state of
// an injected reordered/delayed persist as an extra crash candidate:
// the picked staged words (canonical order) are already durable, the
// rest are still staged.  The picked words are drained in place, and
// the state is keyed (and, if the key is new, snapshotted) as it
// stands: the fence that follows completes in full, draining the rest,
// so nothing needs putting back.  The snapshot is queued until the
// fence's OnStep supplies the step index.
func (p *planner) OnPartialFence(pick func(n int) []int, _ *ir.Site) {
	p.drain = p.drain[:0]
	for i, e := range p.words {
		if e.has(staged) {
			p.drain = append(p.drain, i)
		}
	}
	if len(p.drain) == 0 {
		return
	}
	sel := pick(len(p.drain))
	if len(sel) == 0 {
		return
	}
	for _, i := range sel {
		if i >= 0 && i < len(p.drain) {
			p.words[p.drain[i]].persist()
		}
	}
	if p.fresh() {
		p.pendingMid = append(p.pendingMid, p.nvmState.snapshot())
	}
}

// OnStep implements interp.StepObserver: the interpreter calls it after
// the instruction at the given step has fully executed, so the state
// key snapshotted here is exactly what a re-execution with MaxSteps =
// step observes.
func (p *planner) OnStep(step int, _ ir.Op) {
	for _, snap := range p.pendingMid {
		p.points = append(p.points, planPoint{step: step, snap: snap, mid: true})
	}
	p.pendingMid = p.pendingMid[:0]
	if !p.relevant {
		return
	}
	p.relevant = false
	if p.fresh() {
		p.points = append(p.points, planPoint{step: step, snap: p.nvmState.snapshot()})
	}
}

// snapshot copies the mutable tracking state: the word table, and the
// touched-object set by reference (additions copy it; see touch).
// Object pointers are shared: the interpreter mutates only their
// volatile Slots, which the crash model never reads — the durable image
// is reconstructed from the word table, and objects contribute only
// their immutable ID/Type/Persistent metadata.
func (s *nvmState) snapshot() *nvmState {
	c := *s
	c.words = slices.Clone(s.words)
	return &c
}

// appendKey appends to b the canonical encoding of everything
// checkOutcomes consumes, in one pass over the word table, which is in
// (object, offset) order.  Each word that carries any of these is
// written as "obj.off" followed, in this order, by d<durable value>,
// f<value it persists if in flight>, u<undo pre-image an open
// transaction's recovery restores> and, for a domain word no barrier
// has committed since its last store, p<value a device failure rolls it
// back to> or p! when it has none; then ';'.  The touched objects
// follow after '|', by id.  Two crash points with equal keys produce
// identical invariant verdicts, so the second is safely deduped.
func (s *nvmState) appendKey(b []byte) []byte {
	for _, e := range s.words {
		if !e.has(durable|logged|pending) && !e.inFlight() {
			continue
		}
		b = strconv.AppendInt(b, int64(e.Obj), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(e.Off), 10)
		if e.has(durable) {
			b = strconv.AppendInt(append(b, 'd'), e.dur, 10)
		}
		if e.inFlight() {
			b = strconv.AppendInt(append(b, 'f'), e.cur, 10)
		}
		if e.has(logged) {
			b = strconv.AppendInt(append(b, 'u'), e.undo, 10)
		}
		if e.has(pending) {
			b = append(b, 'p')
			if e.has(committed) {
				b = strconv.AppendInt(b, e.commit, 10)
			} else {
				b = append(b, '!')
			}
		}
		b = append(b, ';')
	}
	b = append(b, '|')
	for _, o := range s.objects {
		b = append(strconv.AppendInt(b, int64(o.ID), 10), ';')
	}
	return b
}
